/**
 * @file
 * The persistent, strongly-consistent metadata store — the model of MySQL
 * Cluster NDB that HopsFS and λFS share (and, with different parameters,
 * of any sharded transactional metadata backend).
 *
 * The store owns the authoritative NamespaceTree and exposes *timed*
 * transactional operations: every call pays a NameNode<->store network
 * round trip, queues for a slot on the shard that owns the target's parent
 * directory, holds exclusive row locks for writes, and then applies the
 * semantic mutation atomically.
 */
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "src/namespace/namespace_tree.h"
#include "src/namespace/op.h"
#include "src/net/network.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"
#include "src/store/data_node.h"
#include "src/store/lock_table.h"
#include "src/store/store.h"
#include "src/util/overload.h"

namespace lfs::store {

/** Store-wide configuration. */
struct StoreConfig {
    int num_data_nodes = 4;
    DataNodeConfig data_node;
    /** Per-row costs of subtree batch transactions (Appendix D model). */
    sim::SimTime subtree_row_read_cost = sim::usec(4);
    sim::SimTime subtree_row_write_cost = sim::usec(14);
    /** Rows per subtree batch transaction. */
    int subtree_batch_size = 512;
    /**
     * Simulated cost of one namespace cold-tier page-in (DESIGN.md §15):
     * charged per fault a transaction incurs, modelling the intermediate
     * read from shared storage that a sub-resident namespace pays. Zero
     * faults (budget unset) charge nothing.
     */
    sim::SimTime fault_page_cost = sim::usec(250);
};

class MetadataStore final : public Store {
  public:
    /**
     * Under @p overload control every shard's queues are bounded and fail
     * fast during outages, and a per-shard circuit breaker (rolling error
     * window, BreakerConfig{} tuning) fails transactions fast with
     * UNAVAILABLE instead of queueing them behind a struggling shard;
     * half-open probes re-close it once the shard recovers.
     */
    MetadataStore(sim::Simulation& sim, net::Network& network, sim::Rng rng,
                  StoreConfig config = {},
                  util::OverloadControlConfig overload = {});
    ~MetadataStore() override;

    ns::NamespaceTree& tree() override { return tree_; }
    const ns::NamespaceTree& tree() const override { return tree_; }

    LockTable& locks() { return locks_; }
    const StoreConfig& config() const { return config_; }

    // ------------------------------------------------------------------
    // Timed transactional operations (called by NameNodes)
    // ------------------------------------------------------------------

    /**
     * Execute a read operation (read/stat/ls) as one batched path-resolve
     * transaction (the "INode Hint Cache" single-round-trip query), under
     * shared row locks on the target and its parent. The result includes
     * the full resolved chain for caching.
     */
    sim::Task<OpResult> read_op(const Op& op) override;

    /**
     * Execute a single-inode write (create/mkdir/delete/mv): acquires
     * exclusive row locks in ascending-id order, awaits @p after_lock
     * (if any) while holding them, runs one write transaction on the
     * owning shard, applies the mutation, releases.
     */
    sim::Task<OpResult> write_op(const Op& op,
                                 LockedHook after_lock = nullptr) override;

    /**
     * Execute a subtree operation (recursive mv/delete) with the HopsFS
     * three-phase protocol: subtree-lock flag, quiesce (batched lock
     * walk), then batched sub-transactions (Appendix D).
     */
    sim::Task<OpResult> subtree_op(Op op,
                                   SubtreeExecution exec = {}) override;

    /**
     * One quiesce walk over @p rows rows; its shard queueing and service
     * are stamped into @p ledger.
     */
    sim::Task<Status> quiesce_rows(const std::string& shard_key, int64_t rows,
                                   sim::LatencyLedger& ledger);

    /** One batched subtree commit of @p rows rows on the owning shard. */
    sim::Task<Status> commit_subtree_batch(const std::string& shard_key,
                                           int64_t rows,
                                           sim::LatencyLedger& ledger);

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    uint64_t total_reads() const override;
    uint64_t total_writes() const override;
    size_t queue_depth() const;

    /** Transactions shed by shard overload control (all shards/reasons). */
    uint64_t shed_total() const;

    /** Breaker open transitions across all shards (0 when disabled). */
    uint64_t breaker_opens() const;

    /** Transactions failed fast by an open breaker across all shards. */
    uint64_t breaker_fast_failures() const;

  private:
    /** Shard index owning metadata for paths under @p parent_path. */
    size_t shard_index(const std::string& parent_path) const;

    /**
     * shard_index(path::parent(path)) without materialising the parent
     * string: the parent's components are folded into the FNV-1a hash
     * directly. Op hot paths (read_op/write_op) pay zero allocations here.
     */
    size_t shard_index_of_parent(std::string_view path) const;

    /** Shard owning metadata for paths under @p parent_path. */
    DataNode& shard_for(const std::string& parent_path);

    /**
     * Admission of @p op on shard @p idx, before any lock or coherence
     * work: UNAVAILABLE while the shard's circuit breaker is open and not
     * yet probing, DEADLINE_EXCEEDED once the op's deadline has passed,
     * else Ok. A refusal is annotated on @p txn_span and costs the caller
     * only the network round trip.
     */
    Status admit(size_t idx, const Op& op, sim::Span& txn_span);

    /** Report one shard transaction outcome to its breaker. */
    void breaker_record(size_t idx, const Status& st);

    /**
     * A transaction's row-lock set: at most 3 ids (a read locks target
     * and parent; a write parent, target and destination parent), held
     * ascending and unique — the global lock order. Inline, so computing
     * it and locking or unlocking its rows copies nothing to the heap.
     */
    class LockSet {
      public:
        void add(ns::INodeId id) { ids_[size_++] = id; }
        /** Sort ascending and drop duplicates. */
        void normalize();
        size_t size() const { return size_; }
        const ns::INodeId* begin() const { return ids_.data(); }
        const ns::INodeId* end() const { return ids_.data() + size_; }

      private:
        std::array<ns::INodeId, 3> ids_{};
        size_t size_ = 0;
    };

    /** Ids that a write on @p op must lock (parent, target, dst parent). */
    LockSet write_lock_set(const Op& op) const;

    /** Ids that a read on @p p locks shared (parent and target). */
    LockSet read_lock_set(std::string_view p) const;

    /** Release @p ids' exclusive row locks, highest id first. */
    void unlock_exclusive(const LockSet& ids);

    /**
     * Charge the simulated cost of namespace page-ins incurred since
     * @p faults_before (fault_page_cost each) and stamp kNsFault. A
     * fully-resident tree never faults, so this awaits nothing then.
     */
    sim::Task<void> charge_ns_faults(uint64_t faults_before,
                                     sim::LatencyLedger& ledger);

    sim::Simulation& sim_;
    net::Network& network_;
    StoreConfig config_;
    ns::NamespaceTree tree_;
    LockTable locks_;
    std::vector<std::unique_ptr<DataNode>> shards_;
    /** Per-shard breakers; empty when overload control is off. */
    std::vector<std::unique_ptr<util::CircuitBreaker>> breakers_;
    // Registry-owned overload counters ({reason} labels).
    sim::Counter* rejected_expired_ = nullptr;
    sim::Counter* rejected_breaker_ = nullptr;
};

}  // namespace lfs::store
