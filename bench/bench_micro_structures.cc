/**
 * @file
 * google-benchmark microbenchmarks for the hot data structures: the trie
 * metadata cache, the store's row-lock table, the retained-result cache,
 * the consistent-hash ring, path utilities, latency histograms, and the
 * DES event loop itself.
 * These guard the simulator's own performance (millions of simulated ops
 * per experiment).
 */
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/cache/metadata_cache.h"
#include "src/core/partitioning.h"
#include "src/core/result_cache.h"
#include "src/namespace/namespace_tree.h"
#include "src/namespace/tree_builder.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"
#include "src/store/lock_table.h"
#include "src/util/hash.h"
#include "src/util/path.h"

namespace {

using namespace lfs;

std::vector<std::string>
make_paths(int n)
{
    std::vector<std::string> paths;
    paths.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        paths.push_back("/bench/d" + std::to_string(i % 37) + "/d" +
                        std::to_string(i % 11) + "/f" + std::to_string(i));
    }
    return paths;
}

ns::INode
make_inode(int i)
{
    ns::INode inode;
    inode.id = i + 1;
    inode.name = "f" + std::to_string(i);
    return inode;
}

void
BM_CachePut(benchmark::State& state)
{
    auto paths = make_paths(static_cast<int>(state.range(0)));
    cache::MetadataCache cache;
    int i = 0;
    for (auto _ : state) {
        cache.put(paths[static_cast<size_t>(i) % paths.size()],
                  make_inode(i));
        ++i;
    }
}
BENCHMARK(BM_CachePut)->Arg(1024)->Arg(65536);

void
BM_CacheGetHit(benchmark::State& state)
{
    auto paths = make_paths(static_cast<int>(state.range(0)));
    cache::MetadataCache cache;
    for (size_t i = 0; i < paths.size(); ++i) {
        cache.put(paths[i], make_inode(static_cast<int>(i)));
    }
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.get(paths[i % paths.size()]));
        ++i;
    }
}
BENCHMARK(BM_CacheGetHit)->Arg(1024)->Arg(65536);

void
BM_CacheGetMiss(benchmark::State& state)
{
    // Misses at every trie level: unknown leaf under a cached directory,
    // and an unknown first component (rejected before any descent).
    auto paths = make_paths(static_cast<int>(state.range(0)));
    cache::MetadataCache cache;
    for (size_t i = 0; i < paths.size(); ++i) {
        cache.put(paths[i], make_inode(static_cast<int>(i)));
    }
    std::vector<std::string> probes;
    for (int i = 0; i < 512; ++i) {
        probes.push_back(i % 2 == 0
                             ? "/bench/d" + std::to_string(i % 37) + "/d" +
                                   std::to_string(i % 11) + "/missing" +
                                   std::to_string(i)
                             : "/absent/d" + std::to_string(i) + "/f");
    }
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.get(probes[i % probes.size()]));
        ++i;
    }
}
BENCHMARK(BM_CacheGetMiss)->Arg(65536);

void
BM_CacheGetDeepHit(benchmark::State& state)
{
    // 12-component paths: the walk itself dominates, not the leaf lookup.
    std::vector<std::string> paths;
    for (int i = 0; i < 1024; ++i) {
        std::string p;
        for (int d = 0; d < 11; ++d) {
            p += "/lvl" + std::to_string((i + d) % 23);
        }
        p += "/leaf" + std::to_string(i);
        paths.push_back(std::move(p));
    }
    cache::MetadataCache cache;
    for (size_t i = 0; i < paths.size(); ++i) {
        cache.put(paths[i], make_inode(static_cast<int>(i)));
    }
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.get(paths[i % paths.size()]));
        ++i;
    }
}
BENCHMARK(BM_CacheGetDeepHit);

void
BM_CachePutChain(benchmark::State& state)
{
    // The λFS read-path install: cache every inode of a resolved chain.
    std::vector<std::vector<ns::INode>> chains;
    for (int i = 0; i < 256; ++i) {
        std::vector<ns::INode> chain;
        ns::INode root;
        root.id = ns::kRootId;
        root.type = ns::INodeType::kDirectory;
        chain.push_back(root);
        ns::INode d1 = make_inode(i + 2);
        d1.name = "d" + std::to_string(i % 37);
        d1.type = ns::INodeType::kDirectory;
        chain.push_back(d1);
        ns::INode d2 = make_inode(i + 3);
        d2.name = "e" + std::to_string(i % 11);
        d2.type = ns::INodeType::kDirectory;
        chain.push_back(d2);
        chain.push_back(make_inode(i + 4));
        chains.push_back(std::move(chain));
    }
    cache::MetadataCache cache;
    size_t i = 0;
    for (auto _ : state) {
        cache.put_chain(chains[i % chains.size()]);
        ++i;
    }
}
BENCHMARK(BM_CachePutChain);

/**
 * The λFS miss install (NameNode::cache_own_partition_entries): a
 * depth-8 chain installed entry by entry under the read guard, with
 * another read's invalidations in the log and every parent owned, so
 * each entry pays the partition lookup, the guard check and the put.
 */
void
BM_CacheInstallChainGuarded(benchmark::State& state)
{
    std::vector<std::vector<ns::INode>> chains;
    for (int i = 0; i < 256; ++i) {
        std::vector<ns::INode> chain;
        ns::INode root;
        root.id = ns::kRootId;
        root.type = ns::INodeType::kDirectory;
        chain.push_back(root);
        for (int d = 0; d < 8; ++d) {
            ns::INode inode = make_inode(i * 8 + d + 1);
            inode.name = "n" + std::to_string((i >> (d % 4)) % (d + 3));
            inode.type = d < 7 ? ns::INodeType::kDirectory
                               : ns::INodeType::kFile;
            chain.push_back(std::move(inode));
        }
        chains.push_back(std::move(chain));
    }
    core::NamespacePartitioner partitioner(1);
    auto owns = [&partitioner](uint64_t parent_hash) {
        return partitioner.deployment_for_parent(parent_hash) == 0;
    };
    cache::MetadataCache cache;
    const auto token = cache.begin_read();
    for (const char* p : {"/x/y", "/n0/z", "/q", "/n1/n2/w"}) {
        cache.invalidate(p);
    }
    size_t i = 0;
    for (auto _ : state) {
        cache.put_chain_guarded(chains[i % chains.size()], token, owns);
        ++i;
    }
    cache.end_read(token);
}
BENCHMARK(BM_CacheInstallChainGuarded);

void
BM_CachePrefixInvalidate(benchmark::State& state)
{
    for (auto _ : state) {
        state.PauseTiming();
        cache::MetadataCache cache;
        for (int i = 0; i < state.range(0); ++i) {
            cache.put("/sub/d" + std::to_string(i % 16) + "/f" +
                          std::to_string(i),
                      make_inode(i));
        }
        state.ResumeTiming();
        benchmark::DoNotOptimize(cache.invalidate_prefix("/sub"));
    }
}
BENCHMARK(BM_CachePrefixInvalidate)->Arg(4096);

/**
 * The write path's invalidation with store reads in flight: every call
 * is logged for the readers (one hash per component, shared by the log
 * and the trie walk). The oldest reader retires every 64 invalidations,
 * so the log is pruned and compacted as on a busy NameNode.
 */
void
BM_CacheInvalidateActiveRead(benchmark::State& state)
{
    auto paths = make_paths(4096);
    cache::MetadataCache cache;
    for (size_t i = 0; i < paths.size(); ++i) {
        cache.put(paths[i], make_inode(static_cast<int>(i)));
    }
    auto held = cache.begin_read();
    size_t i = 0;
    for (auto _ : state) {
        cache.invalidate(paths[i % paths.size()]);
        if (++i % 64 == 0) {
            auto next = cache.begin_read();
            cache.end_read(held);
            held = next;
        }
    }
    cache.end_read(held);
}
BENCHMARK(BM_CacheInvalidateActiveRead);

sim::Task<void>
lock_rows(store::LockTable& locks, const ns::INodeId* ids, size_t n)
{
    for (size_t k = 0; k < n; ++k) {
        co_await locks.lock_exclusive(ids[k]);
    }
}

/**
 * One write transaction's row locks: lock a 3-row set (parent, target,
 * destination parent) ascending, release it in reverse. 256 rows stay
 * held throughout, so every cycle probes a populated table, and each
 * cycle's rows are created and retired.
 */
void
BM_LockTableCycle(benchmark::State& state)
{
    sim::Simulation sim;
    store::LockTable locks(sim);
    std::vector<ns::INodeId> held;
    for (ns::INodeId id = 1; id <= 256; ++id) {
        held.push_back(id * 1000);
    }
    sim::spawn(lock_rows(locks, held.data(), held.size()));
    uint64_t i = 0;
    for (auto _ : state) {
        const ns::INodeId base = static_cast<ns::INodeId>(i % 65536) * 4 + 1;
        const ns::INodeId ids[3] = {base, base + 1, base + 2};
        // Ids are 1..3 mod 4 and the held rows multiples of 1000, so the
        // set is uncontended and the spawn completes without suspending.
        sim::spawn(lock_rows(locks, ids, 3));
        for (size_t k = 3; k-- > 0;) {
            locks.unlock_exclusive(ids[k]);
        }
        ++i;
    }
}
BENCHMARK(BM_LockTableCycle);

sim::Task<void>
result_cache_round(core::ResultCache& cache, uint64_t op_id,
                   const OpResult* result)
{
    std::optional<OpResult> retained = co_await cache.lookup_or_begin(op_id);
    if (result != nullptr && !retained.has_value()) {
        cache.complete(op_id, *result);
        cache.release(op_id);
    }
}

/**
 * One op's retained-result round on a NameNode: lookup_or_begin finds
 * the id unseen, complete() records the result, and the client's ack
 * releases it. 64 ops stay in flight throughout, so every round probes
 * a populated index.
 */
void
BM_ResultCacheRound(benchmark::State& state)
{
    sim::Simulation sim;
    core::ResultCache cache(sim, 4096);
    for (uint64_t client = 1; client <= 64; ++client) {
        sim::spawn(result_cache_round(cache, client << 40, nullptr));
    }
    OpResult result;
    result.inode = make_inode(7);
    uint64_t seq = 0;
    for (auto _ : state) {
        // Client ids as LfsClient stamps them: (client + 1) << 40 | seq.
        const uint64_t op_id = ((seq % 64 + 1) << 40) | (seq / 64 + 1);
        sim::spawn(result_cache_round(cache, op_id, &result));
        benchmark::DoNotOptimize(cache.live());
        ++seq;
    }
}
BENCHMARK(BM_ResultCacheRound);

void
BM_ConsistentHashLookup(benchmark::State& state)
{
    ConsistentHashRing ring(64);
    for (int m = 0; m < 16; ++m) {
        ring.add_member(m);
    }
    auto paths = make_paths(1024);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ring.lookup(paths[i % paths.size()]));
        ++i;
    }
}
BENCHMARK(BM_ConsistentHashLookup);

void
BM_PathSplit(benchmark::State& state)
{
    std::string p = "/a/b/c/d/e/file.txt";
    for (auto _ : state) {
        benchmark::DoNotOptimize(path::split(p));
    }
}
BENCHMARK(BM_PathSplit);

void
BM_PathViewZeroAlloc(benchmark::State& state)
{
    std::string p = "/a/b/c/d/e/file.txt";
    for (auto _ : state) {
        int n = 0;
        for (std::string_view c : path::PathView(p)) {
            benchmark::DoNotOptimize(c);
            ++n;
        }
        benchmark::DoNotOptimize(n);
    }
}
BENCHMARK(BM_PathViewZeroAlloc);

void
BM_HistogramRecord(benchmark::State& state)
{
    sim::Histogram histogram;
    int64_t v = 1;
    for (auto _ : state) {
        histogram.record(v);
        v = (v * 31) % 1000000 + 1;
    }
}
BENCHMARK(BM_HistogramRecord);

void
BM_NsResolveIds(benchmark::State& state)
{
    // The id-centric resolve over the slab-resident hot tier (budget
    // unset): one hash probe per component, no INode materialization.
    ns::NamespaceTree tree;
    ns::UserContext user{0, 0};
    ns::BuiltTree built = ns::build_wide_subtree(
        tree, "/bench", state.range(0), /*fanout=*/16, user, 0);
    ns::IdChain chain;
    size_t i = 0;
    for (auto _ : state) {
        const std::string& p = built.files[i % built.files.size()];
        benchmark::DoNotOptimize(
            tree.resolve_ids(p, user, ns::Follow::kFinal, &chain));
        ++i;
    }
}
BENCHMARK(BM_NsResolveIds)->Arg(65536);

void
BM_NsLookupChild(benchmark::State& state)
{
    // Single directory-table probe: intern-free lookup by (parent, name).
    ns::NamespaceTree tree;
    ns::UserContext user{0, 0};
    ns::build_wide_subtree(tree, "/bench", 4096, /*fanout=*/16, user, 0);
    std::vector<std::string> names;
    for (int i = 0; i < 16; ++i) {
        names.push_back("d" + std::to_string(i));
    }
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tree.lookup_child(ns::kRootId, names[i % names.size()]));
        ++i;
    }
}
BENCHMARK(BM_NsLookupChild);

void
BM_NsCreate(benchmark::State& state)
{
    // Path-checked file creation into one directory (slab append, name
    // intern, child-table insert).
    ns::NamespaceTree tree;
    ns::UserContext user{0, 0};
    if (!tree.mkdirs("/bench", user, 0).ok()) {
        state.SkipWithError("mkdirs failed");
        return;
    }
    int i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tree.create_file("/bench/f" + std::to_string(i), user, i));
        ++i;
    }
}
BENCHMARK(BM_NsCreate);

void
BM_NsMutateCycle(benchmark::State& state)
{
    // create -> mv -> delete of one file in a warm tree: the mutations a
    // write transaction applies, each resolving by inode-id chain.
    ns::NamespaceTree tree;
    ns::UserContext user{0, 0};
    if (!tree.mkdirs("/bench/a", user, 0).ok() ||
        !tree.mkdirs("/bench/b", user, 0).ok()) {
        state.SkipWithError("mkdirs failed");
        return;
    }
    sim::SimTime now = 0;
    for (auto _ : state) {
        ++now;
        benchmark::DoNotOptimize(tree.create_file("/bench/a/f", user, now));
        benchmark::DoNotOptimize(
            tree.rename("/bench/a/f", "/bench/b/f", user, now));
        benchmark::DoNotOptimize(
            tree.remove("/bench/b/f", user, /*recursive=*/false, now));
    }
}
BENCHMARK(BM_NsMutateCycle);

void
BM_EventLoopScheduleStep(benchmark::State& state)
{
    sim::Simulation sim;
    sim::Rng rng(1);
    int sink = 0;
    for (auto _ : state) {
        sim.schedule(rng.uniform_int(1, 1000), [&sink] { ++sink; });
        sim.step();
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventLoopScheduleStep);

}  // namespace

BENCHMARK_MAIN();
