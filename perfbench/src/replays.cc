// Layer replays: the traced run's recorded op stream fed into each layer's
// public functions in isolation, timed from outside. Nothing here reaches
// into src/ internals; every layer is built fresh with the workload's
// configuration.
#include <chrono>

#include "perfbench.h"
#include "src/cache/metadata_cache.h"
#include "src/coord/coordinator.h"
#include "src/core/partitioning.h"
#include "src/core/result_cache.h"
#include "src/faas/platform.h"
#include "src/net/network.h"
#include "src/sim/primitives.h"
#include "src/store/metadata_store.h"
#include "src/util/path.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** Idempotent replays repeat until this much wall time has been timed. */
constexpr double kMinTimedSeconds = 0.05;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** ns per call of @p pass, which makes @p calls calls and is repeatable. */
template <typename Pass>
double
ns_per_call(size_t calls, Pass&& pass)
{
    if (calls == 0) {
        return 0.0;
    }
    size_t passes = 0;
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0.0;
    do {
        pass();
        ++passes;
        elapsed = seconds_since(t0);
    } while (elapsed < kMinTimedSeconds);
    return elapsed * 1e9 / static_cast<double>(passes * calls);
}

/** ns per call of one run of @p once, which makes @p calls calls. */
template <typename Once>
double
ns_once(size_t calls, Once&& once)
{
    if (calls == 0) {
        return 0.0;
    }
    const Clock::time_point t0 = Clock::now();
    once();
    return seconds_since(t0) * 1e9 / static_cast<double>(calls);
}

sim::Task<void>
flag_when_done(sim::Task<void> task, bool& finished)
{
    co_await std::move(task);
    finished = true;
}

/** Host seconds to run @p task to completion on @p sim. */
double
drive(sim::Simulation& sim, sim::Task<void> task)
{
    bool finished = false;
    const Clock::time_point t0 = Clock::now();
    sim::spawn(flag_when_done(std::move(task), finished));
    while (!finished && sim.step()) {
    }
    return seconds_since(t0);
}

/** A cache member that ACKs every INV at once. */
class NoopMember : public coord::CacheMember {
  public:
    bool member_alive() const override { return true; }
    sim::Task<void>
    deliver_invalidation(std::string, bool) override
    {
        co_return;
    }
};

/** A function that answers every invocation OK at once. */
class NoopApp : public faas::FunctionApp {
  public:
    sim::Task<OpResult>
    handle(faas::Invocation) override
    {
        co_return OpResult{};
    }
};

sim::Task<void>
store_reads(store::MetadataStore& store, const std::vector<Op>& ops)
{
    for (const Op& op : ops) {
        OpResult r = co_await store.read_op(op);
        (void)r;
    }
}

sim::Task<void>
store_writes(store::MetadataStore& store, const std::vector<Op>& ops)
{
    for (const Op& op : ops) {
        OpResult r = co_await store.write_op(op);
        (void)r;
    }
}

sim::Task<void>
coord_rounds(coord::Coordinator& coordinator,
             const core::NamespacePartitioner& partitioner,
             const std::vector<Op>& ops)
{
    // The targets NameNode::run_coherence builds: each written path and
    // its parent, at the deployments owning them.
    for (const Op& op : ops) {
        std::vector<coord::Coordinator::InvTarget> targets;
        auto add_path = [&](const std::string& p) {
            targets.push_back({partitioner.deployment_for(p), p, false});
            std::string parent = path::parent(p);
            targets.push_back(
                {partitioner.deployment_for(parent), parent, false});
        };
        add_path(op.path);
        if (has_dst_path(op.type)) {
            add_path(op.dst);
        }
        co_await coordinator.invalidate(std::move(targets), nullptr);
    }
}

sim::Task<void>
gateway_invokes(faas::FunctionDeployment& deployment,
                const std::vector<Op>& ops)
{
    for (const Op& op : ops) {
        faas::Invocation inv;
        inv.op = op;
        inv.via_http = true;
        OpResult r = co_await deployment.invoke_via_gateway(std::move(inv));
        (void)r;
    }
}

sim::Task<void>
result_cache_rounds(core::ResultCache& cache,
                    const std::vector<RecordedOp>& recorded)
{
    uint64_t id = 0;
    for (const RecordedOp& r : recorded) {
        ++id;
        std::optional<OpResult> retained = co_await cache.lookup_or_begin(id);
        if (!retained.has_value()) {
            cache.complete(id, r.result);
        }
    }
}

/**
 * Mutations to replay: the recorded writes in completion order (each
 * client's writes complete in its stream order, so every prefix replays
 * cleanly). A workload without writes gets a create+delete of a scratch
 * file beside each recorded path.
 */
std::vector<Op>
write_stream(const std::vector<RecordedOp>& recorded)
{
    std::vector<Op> writes;
    for (const RecordedOp& r : recorded) {
        if (!is_read_op(r.op.type) && r.result.status.ok()) {
            writes.push_back(r.op);
        }
    }
    if (!writes.empty()) {
        return writes;
    }
    for (size_t i = 0; i < recorded.size(); ++i) {
        Op create;
        create.type = OpType::kCreateFile;
        create.path = path::join(path::parent(recorded[i].op.path),
                                 "replay_" + std::to_string(i));
        Op remove = create;
        remove.type = OpType::kDeleteFile;
        writes.push_back(std::move(create));
        writes.push_back(std::move(remove));
    }
    return writes;
}

/** Apply @p op to @p tree through NamespaceTree's mutation API. */
void
mutate(ns::NamespaceTree& tree, const Op& op)
{
    const ns::UserContext root;
    switch (op.type) {
      case OpType::kCreateFile:
        (void)tree.create_file(op.path, root, 0);
        break;
      case OpType::kMkdir:
        (void)tree.mkdirs(op.path, root, 0);
        break;
      case OpType::kDeleteFile:
        (void)tree.remove(op.path, root, false, 0);
        break;
      case OpType::kMv:
        (void)tree.rename(op.path, op.dst, root, 0);
        break;
      default:
        break;
    }
}

}  // namespace

ReplayResult
run_replays(const WorkloadPlan& plan, const RepResult& traced)
{
    ReplayResult out;
    const std::vector<RecordedOp>& recorded = traced.recorded;
    const core::LambdaFsConfig& config = plan.config;
    const ns::UserContext root;

    std::vector<Op> reads;
    std::vector<std::string> paths;
    for (const RecordedOp& r : recorded) {
        paths.push_back(r.op.path);
        if (is_read_op(r.op.type)) {
            reads.push_back(r.op);
        }
    }
    const std::vector<Op> writes = write_stream(recorded);

    // namespace: mutations onto a fresh copy of the tree, then resolves.
    {
        ns::NamespaceTree tree;
        ns::build_balanced_tree(tree, plan.tree, root, 0);
        out.mutate_ns = ns_once(writes.size(), [&] {
            for (const Op& op : writes) {
                mutate(tree, op);
            }
        });
        ns::IdChain chain;
        out.resolve_ns = ns_per_call(paths.size(), [&] {
            for (const std::string& p : paths) {
                (void)tree.resolve_ids(p, root, ns::Follow::kNoFinal, &chain);
            }
        });

        // cache: one trie per deployment at the workload's budget.
        core::NamespacePartitioner partitioner(config.num_deployments);
        std::vector<std::unique_ptr<cache::MetadataCache>> caches;
        for (int d = 0; d < config.num_deployments; ++d) {
            caches.push_back(std::make_unique<cache::MetadataCache>(
                cache::CacheConfig{config.name_node.cache_bytes}));
        }
        std::vector<std::vector<ns::INode>> chains;
        std::vector<std::string> chain_paths;
        std::vector<cache::MetadataCache*> owner;
        for (const Op& op : reads) {
            auto resolved = tree.resolve(op.path, root, ns::Follow::kNoFinal);
            if (resolved.ok()) {
                chains.push_back(resolved.value().chain);
                chain_paths.push_back(op.path);
                owner.push_back(
                    caches[static_cast<size_t>(
                               partitioner.deployment_for(op.path))]
                        .get());
            }
        }
        out.cache_put_chain_ns = ns_once(chains.size(), [&] {
            for (size_t i = 0; i < chains.size(); ++i) {
                owner[i]->put_chain(chains[i]);
            }
        });
        out.cache_get_ns = ns_per_call(chain_paths.size(), [&] {
            for (size_t i = 0; i < chain_paths.size(); ++i) {
                (void)owner[i]->get(chain_paths[i]);
            }
        });
        out.cache_invalidate_ns = ns_once(2 * writes.size(), [&] {
            for (const Op& op : writes) {
                cache::MetadataCache& c = *caches[static_cast<size_t>(
                    partitioner.deployment_for(op.path))];
                c.invalidate(op.path);
                c.invalidate(path::parent_view(op.path));
            }
        });

        // partitioning: routing and write-target lookups.
        uint64_t sink = 0;
        out.partition_lookup_ns = ns_per_call(paths.size(), [&] {
            for (const std::string& p : paths) {
                sink += static_cast<uint64_t>(partitioner.deployment_for(p));
            }
        });
        out.partition_write_targets_ns = ns_per_call(writes.size(), [&] {
            for (const Op& op : writes) {
                sink += partitioner.write_target_deployments(op.path).size();
            }
        });
        (void)sink;
    }

    // result cache: lookup_or_begin + complete per recorded result.
    {
        sim::Simulation sim;
        core::ResultCache cache(sim, config.name_node.result_cache_entries);
        const uint64_t allocs_before = allocations();
        double secs = drive(sim, result_cache_rounds(cache, recorded));
        if (!recorded.empty()) {
            double n = static_cast<double>(recorded.size());
            out.result_cache_round_ns = secs * 1e9 / n;
            out.result_cache_allocs_per_round =
                static_cast<double>(allocations() - allocs_before) / n;
        }
    }

    // store: timed transactions, one coroutine, fresh store and tree.
    {
        sim::Simulation sim;
        net::Network network(sim, sim::Rng(1), config.network);
        store::MetadataStore store(sim, network, sim::Rng(2), config.store);
        ns::build_balanced_tree(store.tree(), plan.tree, root, 0);
        if (!writes.empty()) {
            out.store_write_op_us = drive(sim, store_writes(store, writes)) *
                                    1e6 /
                                    static_cast<double>(writes.size());
        }
        if (!reads.empty()) {
            out.store_read_op_us = drive(sim, store_reads(store, reads)) *
                                   1e6 / static_cast<double>(reads.size());
        }
    }

    // coord: INV/ACK rounds against no-op members, one per alive instance.
    {
        sim::Simulation sim;
        net::Network network(sim, sim::Rng(3), config.network);
        coord::Coordinator coordinator(sim, network);
        core::NamespacePartitioner partitioner(config.num_deployments);
        std::vector<std::unique_ptr<NoopMember>> members;
        for (int d = 0; d < config.num_deployments; ++d) {
            int n = 1;
            if (static_cast<size_t>(d) <
                traced.members_per_deployment.size()) {
                n = std::max(1, traced.members_per_deployment[
                                    static_cast<size_t>(d)]);
            }
            for (int k = 0; k < n; ++k) {
                members.push_back(std::make_unique<NoopMember>());
                coordinator.join(d, members.back().get());
            }
        }
        if (!writes.empty()) {
            out.coord_round_us =
                drive(sim, coord_rounds(coordinator, partitioner, writes)) *
                1e6 / static_cast<double>(writes.size());
        }
    }

    // faas: gateway invocations onto a no-op function.
    {
        sim::Simulation sim;
        net::Network network(sim, sim::Rng(4), config.network);
        faas::Platform platform(
            sim, network, sim::Rng(5),
            faas::PlatformConfig{config.total_vcpus, config.function});
        faas::FunctionDeployment& deployment = platform.create_deployment(
            "noop", config.function, [](faas::FunctionInstance&) {
                return std::make_unique<NoopApp>();
            });
        deployment.prewarm(1);
        std::vector<Op> ops;
        for (const RecordedOp& r : recorded) {
            ops.push_back(r.op);
        }
        if (!ops.empty()) {
            out.invoke_us = drive(sim, gateway_invokes(deployment, ops)) *
                            1e6 / static_cast<double>(ops.size());
        }
    }
    return out;
}

}  // namespace perfbench
