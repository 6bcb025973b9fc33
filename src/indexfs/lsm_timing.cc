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
                 lsm::LsmTree& home, lsm::LsmTree* dst, net::Network* dst_hop)
{
    const size_t orphans = tree.orphan_count();
    OpResult r = ns::apply(tree, op, sim.now());
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
    Op op;  // the superuser's
    op.type = OpType::kMkdir;
    op.path = type == ns::INodeType::kDirectory ? p : path::parent(p);
    OpResult r = ns::apply(tree, op, 0);
    if (type != ns::INodeType::kDirectory) {
        op.type = OpType::kCreateFile;
        op.path = p;
        r = ns::apply(tree, op, 0);
    }
    if (r.status.ok()) {
        sim::spawn(put_row(lsm, p, std::move(r.inode)));
    }
}

}  // namespace lfs::indexfs
