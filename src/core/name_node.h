/**
 * @file
 * The λFS serverless NameNode — the paper's primary contribution. One
 * NameNode runs inside each function instance and retains, across
 * invocations: the trie metadata cache (§3.3), a result cache for
 * transparently resubmitted requests (§3.2), and its coherence-protocol
 * membership. Writes run Algorithm 1 (INV to all deployments caching
 * affected metadata, ACKs collected via the Coordinator, exclusive store
 * locks held throughout); subtree operations use prefix invalidations and
 * serverless offloading (Appendix D).
 */
#pragma once

#include <deque>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/cache/metadata_cache.h"
#include "src/coord/coordinator.h"
#include "src/core/partitioning.h"
#include "src/core/result_cache.h"
#include "src/core/tcp_registry.h"
#include "src/faas/function_instance.h"
#include "src/namespace/op.h"
#include "src/net/network.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/store/store.h"
#include "src/util/overload.h"

namespace lfs::core {

/** NameNode behaviour knobs (service costs calibrated in DESIGN.md §5). */
struct NameNodeConfig {
    /** CPU per metadata read served from the local cache. */
    sim::SimTime read_cpu = sim::usec(360);
    /** Extra CPU for open-for-read (block-location assembly). */
    sim::SimTime read_block_cpu = sim::usec(60);
    /** Extra CPU on a cache miss (deserialize + install). */
    sim::SimTime miss_extra_cpu = sim::usec(150);
    /** CPU per write operation (excluding coherence + store time). */
    sim::SimTime write_cpu = sim::usec(700);
    /**
     * Local cache budget in bytes. 0 is a stateless NameNode: it joins no
     * coordinator group and runs no coherence round.
     */
    size_t cache_bytes = 1ull * 1024 * 1024 * 1024;
    /**
     * Resolve a write's uncached parent through the store before the
     * transaction. HopsFS clients' INode hint cache makes it free (§2).
     */
    bool resolve_write_parent = true;
    /** NameNode-side per-inode cost of subtree batch processing. */
    sim::SimTime subtree_per_row_cpu = sim::usec(8);
    /** Offload subtree batches to helper NameNodes (Appendix D). */
    bool offload_subtree = true;
    /**
     * Retention window of a deployment's resubmission-dedup results, in
     * completions: an unreleased record expires this many completions
     * later (see ResultCache).
     */
    size_t result_cache_entries = 4096;
    /** Interval for publishing block reports / liveness to the store. */
    sim::SimTime report_interval = sim::sec(10);
};

/** Shared services a NameNode uses (owned by the LambdaFs system). */
struct LfsRuntime {
    sim::Simulation& sim;
    net::Network& network;
    store::Store& store;
    coord::Coordinator& coordinator;
    NamespacePartitioner& partitioner;
    TcpRegistry& tcp_registry;
    /** One retained-result table per deployment (indexed by deployment id). */
    std::vector<std::unique_ptr<ResultCache>>& result_caches;
    /** Overload control (deadlines and jittered backoff for clients). */
    util::OverloadControlConfig overload;

    /**
     * Per-deployment client retry budgets (empty when overload control is
     * off). Non-owning: LambdaFs owns the budgets.
     */
    std::vector<util::RetryBudget*> retry_budgets = {};

    ResultCache&
    result_cache(int deployment) const
    {
        return *result_caches[static_cast<size_t>(deployment)];
    }

    /** Retry budget for @p deployment, or nullptr when disabled. */
    util::RetryBudget*
    retry_budget(int deployment) const
    {
        if (retry_budgets.empty()) {
            return nullptr;
        }
        return retry_budgets[static_cast<size_t>(deployment)];
    }
};

class NameNode : public faas::FunctionApp, public coord::CacheMember {
  public:
    NameNode(LfsRuntime& runtime, faas::FunctionInstance& instance,
             NameNodeConfig config);
    ~NameNode() override;

    // faas::FunctionApp
    sim::Task<OpResult> handle(faas::Invocation inv) override;
    void on_shutdown() override;

    // coord::CacheMember
    bool member_alive() const override { return instance_.alive(); }
    sim::Task<void> deliver_invalidation(std::string path,
                                         bool subtree) override;

    cache::MetadataCache& cache() { return cache_; }
    uint64_t block_reports_published() const { return block_reports_; }

  private:
    sim::Task<OpResult> handle_read(const Op& op);
    sim::Task<OpResult> handle_write(const Op& op);
    sim::Task<OpResult> handle_subtree(const Op& op);

    /** Coherence round for a single-inode write on @p op. With
        @p invalidate_ancestors, point INVs also cover every ancestor of
        op.path (mkdirs materialising missing intermediate dirs). */
    sim::Task<void> run_coherence(const Op& op, bool invalidate_ancestors);

    /** Prefix-invalidation round for the subtree op @p op. */
    sim::Task<void> run_subtree_coherence(Op op);

    /**
     * One coherence round's INV targets. Slots past `size` keep their
     * path strings' capacity, so a reused buffer refills without
     * allocating.
     */
    struct TargetBuffer {
        std::vector<coord::Coordinator::InvTarget> slots;
        size_t size = 0;

        void push(int group, std::string_view p, bool subtree);
        /** Append the point INV for @p p's parent directory. */
        void push_parent(const NamespacePartitioner& partitioner,
                         std::string_view p);
        /** The next slot, grown on first use. */
        coord::Coordinator::InvTarget& next();

        std::span<const coord::Coordinator::InvTarget>
        view() const
        {
            return {slots.data(), size};
        }
    };

    /** An empty target buffer, recycled from an earlier round if any. */
    TargetBuffer take_targets();

    /** Invalidate the local cache entries a write on @p op touches. */
    void invalidate_local(const Op& op);

    /** Cache the chain entries whose partition this deployment owns,
        via the in-flight read guard taken before the store read. */
    void cache_own_partition_entries(const std::vector<ns::INode>& chain,
                                     cache::MetadataCache::ReadToken token);

    /** True if @p op must escalate to the subtree protocol. */
    bool requires_subtree_protocol(const Op& op) const;

    /**
     * Periodic serverless-compatible maintenance: publishes block-report
     * and liveness info to the persistent store (§1: "re-implements many
     * DFS maintenance features ... by publishing information to the
     * persistent metadata store on a regular interval").
     */
    sim::Task<void> report_loop();

    LfsRuntime& rt_;
    faas::FunctionInstance& instance_;
    NameNodeConfig config_;
    cache::MetadataCache cache_;
    // Registry-owned, shared by every NameNode of the same deployment.
    sim::Counter& cache_hits_;
    sim::Counter& cache_misses_;
    sim::Counter& shed_expired_;
    /**
     * Target buffers of finished rounds. Rounds on one instance overlap,
     * so each takes its own buffer and returns it when its ACKs are in.
     */
    std::vector<TargetBuffer> free_targets_;
    /** handle_write's parent-resolve kStat Ops, recycled the same way. */
    std::vector<Op> free_resolves_;
    bool in_coordinator_ = false;
    uint64_t block_reports_ = 0;
};

}  // namespace lfs::core
