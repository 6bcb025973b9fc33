#include "src/indexfs/lsm_timing.h"

#include <utility>

#include "src/namespace/apply.h"
#include "src/util/path.h"

namespace lfs::indexfs {

namespace {

/** @p inode as the row stored under @p key: it carries the key's name. */
ns::INode
row_for(const std::string& key, ns::INode inode)
{
    inode.name = path::basename(key);
    return inode;
}

sim::Task<void>
put_row(lsm::LsmTree& lsm, std::string key, ns::INode inode)
{
    Status st = co_await lsm.put(std::move(key), std::move(inode));
    (void)st;
}

OpResult
unserved(const Op& op)
{
    OpResult r;
    r.status = Status::invalid_argument(std::string("not an IndexFS op: ") +
                                        op_name(op.type));
    return r;
}

}  // namespace

RowCalls
row_calls(OpType type)
{
    switch (type) {
      case OpType::kCreateFile:
      case OpType::kMkdir:
      case OpType::kSymlink:
        return RowCalls::kPut;
      case OpType::kDeleteFile:
        return RowCalls::kDel;
      case OpType::kSetAttr:
        return RowCalls::kGetPut;
      case OpType::kHardLink:
        return RowCalls::kLink;
      case OpType::kOpenSession:
      case OpType::kStat:
      case OpType::kReadFile:
        return RowCalls::kGet;
      case OpType::kCloseSession:
      case OpType::kGcPrune:
      case OpType::kStatFs:
        return RowCalls::kNone;
      default:
        return RowCalls::kUnsupported;
    }
}

sim::Task<void>
charge_lsm(const Op& op, const OpResult& r, bool orphaned,
           lsm::LsmTree& home, lsm::LsmTree* dst, net::Network* dst_hop)
{
    const RowCalls calls = row_calls(op.type);
    if (calls == RowCalls::kNone || calls == RowCalls::kUnsupported) {
        co_return;
    }
    if (!r.status.ok() || calls == RowCalls::kGet) {
        (void)co_await home.get(op.path);
        co_return;
    }
    if (calls == RowCalls::kPut) {
        co_await put_row(home, op.path, r.inode);
    } else if (calls == RowCalls::kDel) {
        if (orphaned) {
            (void)co_await home.get(op.path);
        }
        Status st = co_await home.del(op.path);
        (void)st;
    } else {
        (void)co_await home.get(op.path);
        co_await put_row(home, op.path, row_for(op.path, r.inode));
        if (calls == RowCalls::kLink) {
            if (dst_hop != nullptr) {
                co_await dst_hop->round_trip(net::LatencyClass::kTcp);
            }
            co_await put_row(*dst, op.dst, row_for(op.dst, r.inode));
        }
    }
}

sim::Task<OpResult>
apply_and_charge(sim::Simulation& sim, ns::NamespaceTree& tree, const Op& op,
                 std::vector<ns::INode>& chain, lsm::LsmTree& home,
                 lsm::LsmTree* dst, net::Network* dst_hop)
{
    const size_t orphans = tree.orphan_count();
    OpResult r = ns::apply(tree, op, sim.now(), std::move(chain));
    co_await charge_lsm(op, r, tree.orphan_count() > orphans, home, dst,
                        dst_hop);
    co_return r;
}

std::string
symlink_hop(const ns::NamespaceTree& tree, const std::string& p)
{
    auto got = tree.stat(p, ns::UserContext{});
    return got.ok() && got->is_symlink() ? got->symlink_target
                                         : std::string();
}

void
preload_row(ns::NamespaceTree& tree, lsm::LsmTree& lsm, const std::string& p,
            ns::INodeType type)
{
    OpResult r = store::preload_path(tree, p, type);
    if (r.status.ok()) {
        sim::spawn(put_row(lsm, p, std::move(r.inode)));
    }
}

LsmStore::LsmStore(sim::Simulation& sim, sim::Rng rng, int instances,
                   lsm::LsmConfig config)
    : sim_(sim)
{
    for (int i = 0; i < instances; ++i) {
        instances_.push_back(
            std::make_unique<lsm::LsmTree>(sim_, rng.fork(), config));
        ring_.add_member(i);
    }
}

bool
LsmStore::serves(OpType type) const
{
    return row_calls(type) != RowCalls::kUnsupported;
}

lsm::LsmTree&
LsmStore::lsm_for(std::string_view p)
{
    return *instances_[static_cast<size_t>(
        ring_.lookup_hash(mix64(path::parent_hash(p))))];
}

sim::Task<OpResult>
LsmStore::transact(const Op& op, LockedHook after_lock)
{
    if (!serves(op.type)) {
        co_return unserved(op);
    }
    ++(is_read_op(op.type) ? reads_ : writes_);
    sim::LatencyLedger led;
    if (after_lock) {
        const sim::SimTime coh_start = sim_.now();
        co_await after_lock();
        led.add(sim::LatSeg::kCoherence, sim_.now() - coh_start);
    }
    const sim::SimTime start = sim_.now();
    OpResult result;
    if (op.type == OpType::kStatFs || op.type == OpType::kGcPrune) {
        // One aggregate-row get per instance, then apply once.
        for (auto& lsm : instances_) {
            (void)co_await lsm->get("");
        }
        result = ns::apply(tree_, op, sim_.now());
    } else {
        std::vector<ns::INode> chain =
            is_read_op(op.type) ? take_chain() : std::vector<ns::INode>();
        result = co_await apply_and_charge(
            sim_, tree_, op, chain, lsm_for(op.path),
            has_dst_path(op.type) ? &lsm_for(op.dst) : nullptr);
    }
    // Open-for-read fetches each symlink hop's row from its own instance.
    if (op.type == OpType::kReadFile && result.status.ok() &&
        result.via_symlink) {
        std::string p = op.path;
        for (int hops = 0; hops < ns::kMaxSymlinkFollows; ++hops) {
            std::string next = symlink_hop(tree_, p);
            if (next.empty()) {
                break;
            }
            (void)co_await lsm_for(next).get(next);
            p = std::move(next);
        }
    }
    led.add(sim::LatSeg::kStoreService, sim_.now() - start);
    result.ledger = led;
    co_return result;
}

sim::Task<OpResult>
LsmStore::subtree_op(Op op, store::SubtreeExecution)
{
    co_return unserved(op);
}

void
LsmStore::preload(const std::string& p, ns::INodeType type)
{
    preload_row(tree_, lsm_for(p), p, type);
}

}  // namespace lfs::indexfs
