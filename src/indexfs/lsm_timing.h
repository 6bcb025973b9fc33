/**
 * @file
 * The IndexFS family's timing backend. IndexFS' servers and λIndexFS'
 * LsmStore keep one NamespaceTree as their only semantic state and apply
 * every op through ns::apply, like every other system. Their LSM
 * instances (the LevelDB model in src/lsm) only decide how long an op
 * takes: charge_lsm() makes the row calls a flat path-keyed metadata
 * table makes for an op's result, on the same keys and in the same
 * order, so LSM write batching, flushes and bloom-filtered reads shape
 * the timing. The row values carry the tree's inode under the row's own
 * name, so memtable sizes (and with them flush timing) depend on the
 * name and symlink target only.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/lsm/lsm_tree.h"
#include "src/namespace/namespace_tree.h"
#include "src/namespace/op.h"
#include "src/net/network.h"
#include "src/sim/task.h"
#include "src/store/store.h"
#include "src/util/hash.h"

namespace lfs::indexfs {

/** The row calls a successful op makes (DESIGN.md §12). */
enum class RowCalls : uint8_t {
    kUnsupported,  ///< mv, subtree ops, ls: not served by IndexFS
    kNone,         ///< session close, GC, statfs: no row is touched
    kPut,          ///< create, mkdir, symlink
    kDel,          ///< delete; a get first when it orphans the file
    kGetPut,       ///< setattr
    kLink,         ///< get + put on the source, put on the destination
    kGet,          ///< open session, stat, read (plus one per symlink hop)
};

/** The row calls @p type makes when it succeeds. */
RowCalls row_calls(OpType type);

/**
 * Charge the row calls for @p op, whose result is @p r, to @p home (the
 * LSM holding op.path's row). A failed op charges one get on its target.
 * @p orphaned: the delete left a session-held orphan, whose row is read
 * before it is tombstoned. @p dst holds op.dst's row (hard links only);
 * @p dst_hop, when set, is the network a server-to-server round trip
 * crosses before the destination put. Symlink hops of a read are the
 * caller's (symlink_hop).
 */
sim::Task<void> charge_lsm(const Op& op, const OpResult& r, bool orphaned,
                           lsm::LsmTree& home, lsm::LsmTree* dst = nullptr,
                           net::Network* dst_hop = nullptr);

/**
 * Apply @p op to @p tree now, then charge its row calls (charge_lsm).
 * Every IndexFS op that touches one partition goes through here. A read
 * resolves into @p chain's capacity, which moves into the result (see
 * ns::apply); the caller's local outlives the await.
 */
sim::Task<OpResult> apply_and_charge(sim::Simulation& sim,
                                     ns::NamespaceTree& tree, const Op& op,
                                     std::vector<ns::INode>& chain,
                                     lsm::LsmTree& home,
                                     lsm::LsmTree* dst = nullptr,
                                     net::Network* dst_hop = nullptr);

/**
 * The stored target when @p p names a symlink in @p tree, else "": the
 * next hop of a read that followed symlinks, whose row a flat keyspace
 * fetches separately.
 */
std::string symlink_hop(const ns::NamespaceTree& tree, const std::string& p);

/**
 * Untimed preload of an existing path (workload setup): store::
 * preload_path, then spawn @p p's row insert into @p lsm, which runs
 * (with any flush it triggers) during warmup.
 */
void preload_row(ns::NamespaceTree& tree, lsm::LsmTree& lsm,
                 const std::string& p, ns::INodeType type);

/**
 * IndexFS' LSM store behind λFS's NameNodes: λIndexFS (§4, §5.7) is
 * λFS's serverless caching layer, unchanged, in front of IndexFS'
 * LevelDB instances. An op costs its row calls on the instance owning
 * its directory partition (an open-for-read also fetches each symlink
 * hop's row); statfs and GC read one aggregate row per instance. mv, the
 * subtree ops and ls are not served. A write awaits its hook before it
 * applies, with no row lock held.
 */
class LsmStore final : public store::Store {
  public:
    /** @p instances LevelDBs, one per original IndexFS client VM. */
    LsmStore(sim::Simulation& sim, sim::Rng rng, int instances,
             lsm::LsmConfig config);

    ns::NamespaceTree& tree() override { return tree_; }
    const ns::NamespaceTree& tree() const override { return tree_; }
    bool serves(OpType type) const override;

    sim::Task<OpResult> read_op(const Op& op) override
    {
        return transact(op, nullptr);
    }
    sim::Task<OpResult> write_op(const Op& op,
                                 LockedHook after_lock = nullptr) override
    {
        return transact(op, after_lock);
    }
    sim::Task<OpResult> subtree_op(Op op,
                                   store::SubtreeExecution exec) override;

    uint64_t total_reads() const override { return reads_; }
    uint64_t total_writes() const override { return writes_; }

    /** Also spawns @p p's row insert (preload_row). */
    void preload(const std::string& p, ns::INodeType type) override;

  private:
    /** The instance holding @p p's row (parent-directory hash). */
    lsm::LsmTree& lsm_for(std::string_view p);

    sim::Task<OpResult> transact(const Op& op, LockedHook after_lock);

    sim::Simulation& sim_;
    ns::NamespaceTree tree_;
    ConsistentHashRing ring_;
    std::vector<std::unique_ptr<lsm::LsmTree>> instances_;
    uint64_t reads_ = 0;
    uint64_t writes_ = 0;
};

}  // namespace lfs::indexfs
