/**
 * @file
 * Tests for the HopsFS baseline, built as core::LambdaFs from
 * core::hopsfs_config(): stateless serving, store-bound behaviour, the
 * +Cache variant's routing and invalidation, subtree operations, and the
 * serverful pool (no gateway, no scaling, VM billing, spread load).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/core/lambda_fs.h"
#include "src/namespace/tree_builder.h"
#include "src/sim/simulation.h"

namespace lfs::core {
namespace {

using sim::Simulation;
using sim::Task;

/** 64 vCPUs: four 16-vCPU NameNodes, 16 clients on 2 VMs. */
LambdaFsConfig
small_config(bool cached)
{
    LambdaFsConfig config = hopsfs_config(64.0, cached);
    config.num_client_vms = 2;
    config.clients_per_vm = 8;
    return config;
}

Op
make_op(OpType type, std::string p, std::string dst = "")
{
    Op op;
    op.type = type;
    op.path = std::move(p);
    op.dst = std::move(dst);
    return op;
}

Task<void>
co_execute(workload::DfsClient& client, Op op, OpResult& out)
{
    out = co_await client.execute(std::move(op));
}

OpResult
run_one(Simulation& sim, LambdaFs& fs, size_t client, Op op)
{
    OpResult result;
    sim::spawn(co_execute(fs.client(client), std::move(op), result));
    sim.run_until(sim.now() + sim::sec(60));
    return result;
}

TEST(HopsFs, BasicReadWrite)
{
    Simulation sim;
    LambdaFs fs(sim, small_config(false));
    ns::UserContext root;
    fs.authoritative_tree().mkdirs("/d", root, 0);

    OpResult create =
        run_one(sim, fs, 0, make_op(OpType::kCreateFile, "/d/f"));
    ASSERT_TRUE(create.status.ok());
    OpResult read = run_one(sim, fs, 1, make_op(OpType::kReadFile, "/d/f"));
    ASSERT_TRUE(read.status.ok());
    EXPECT_EQ(read.inode.name, "f");
    EXPECT_FALSE(read.cache_hit);  // stateless: never a cache hit
}

TEST(HopsFs, VanillaAlwaysHitsTheStore)
{
    Simulation sim;
    LambdaFs fs(sim, small_config(false));
    ns::UserContext root;
    fs.authoritative_tree().create_file("/f", root, 0);
    for (int i = 0; i < 5; ++i) {
        OpResult r = run_one(sim, fs, 0, make_op(OpType::kStat, "/f"));
        ASSERT_TRUE(r.status.ok());
        EXPECT_FALSE(r.cache_hit);
    }
    EXPECT_EQ(fs.store().total_reads(), 5u);
}

TEST(HopsFsCache, SecondReadHitsCache)
{
    Simulation sim;
    LambdaFs fs(sim, small_config(true));
    ns::UserContext root;
    fs.authoritative_tree().create_file("/f", root, 0);
    OpResult first = run_one(sim, fs, 0, make_op(OpType::kStat, "/f"));
    ASSERT_TRUE(first.status.ok());
    EXPECT_FALSE(first.cache_hit);
    OpResult second = run_one(sim, fs, 1, make_op(OpType::kStat, "/f"));
    ASSERT_TRUE(second.status.ok());
    EXPECT_TRUE(second.cache_hit);  // deterministic routing: same NN
    EXPECT_EQ(fs.store().total_reads(), 1u);
}

TEST(HopsFsCache, WriteInvalidatesOwningNameNode)
{
    Simulation sim;
    LambdaFs fs(sim, small_config(true));
    ns::UserContext root;
    fs.authoritative_tree().mkdirs("/d", root, 0);
    fs.authoritative_tree().create_file("/d/f", root, 0);

    OpResult read1 = run_one(sim, fs, 0, make_op(OpType::kStat, "/d/f"));
    ASSERT_TRUE(read1.status.ok());
    OpResult del =
        run_one(sim, fs, 5, make_op(OpType::kDeleteFile, "/d/f"));
    ASSERT_TRUE(del.status.ok());
    OpResult read2 = run_one(sim, fs, 0, make_op(OpType::kStat, "/d/f"));
    EXPECT_EQ(read2.status.code(), Code::kNotFound);
}

TEST(HopsFsCache, DirectoryMvUsesSubtreeInvalidation)
{
    Simulation sim;
    LambdaFs fs(sim, small_config(true));
    ns::UserContext root;
    fs.authoritative_tree().mkdirs("/a/b", root, 0);
    fs.authoritative_tree().create_file("/a/b/f", root, 0);
    fs.authoritative_tree().mkdirs("/z", root, 0);

    ASSERT_TRUE(
        run_one(sim, fs, 0, make_op(OpType::kStat, "/a/b/f")).status.ok());
    OpResult mv = run_one(sim, fs, 2, make_op(OpType::kMv, "/a", "/z/a"));
    ASSERT_TRUE(mv.status.ok());
    OpResult stale = run_one(sim, fs, 0, make_op(OpType::kStat, "/a/b/f"));
    EXPECT_EQ(stale.status.code(), Code::kNotFound);
    OpResult fresh =
        run_one(sim, fs, 0, make_op(OpType::kStat, "/z/a/b/f"));
    EXPECT_TRUE(fresh.status.ok());
}

TEST(HopsFs, SubtreeDelete)
{
    Simulation sim;
    LambdaFs fs(sim, small_config(false));
    ns::UserContext root;
    ns::build_flat_directory(fs.authoritative_tree(), "/big", 1000, root, 0);
    OpResult del =
        run_one(sim, fs, 0, make_op(OpType::kSubtreeDelete, "/big"));
    ASSERT_TRUE(del.status.ok());
    EXPECT_EQ(del.inodes_touched, 1001);
}

TEST(HopsFs, CostGrowsLinearlyWithTime)
{
    Simulation sim;
    LambdaFs fs(sim, small_config(false));
    sim.run_until(sim::sec(3600));
    double one_hour = fs.cost_so_far();
    sim.run_until(sim::sec(7200));
    EXPECT_NEAR(fs.cost_so_far(), 2.0 * one_hour, 1e-9);
    // 4 NameNodes x 16 vCPUs at $1.008/16vCPU-h = $4.032/h.
    EXPECT_NEAR(one_hour, 4.032, 1e-6);
}

TEST(HopsFs, ConcurrentClientsAllComplete)
{
    Simulation sim;
    LambdaFs fs(sim, small_config(false));
    ns::UserContext root;
    auto built =
        ns::build_flat_directory(fs.authoritative_tree(), "/d", 50, root, 0);
    std::vector<OpResult> results(16);
    for (int i = 0; i < 16; ++i) {
        sim::spawn(co_execute(
            fs.client(static_cast<size_t>(i)),
            make_op(OpType::kStat, built.files[static_cast<size_t>(i) %
                                               built.files.size()]),
            results[static_cast<size_t>(i)]));
    }
    sim.run_until(sim::sec(30));
    for (const auto& r : results) {
        EXPECT_TRUE(r.status.ok());
    }
}

/** @p ops reads and creates by client @p client, back to back. */
Task<void>
co_burst(workload::DfsClient& client, const ns::BuiltTree& tree, int client_id,
         int ops, int& completed)
{
    for (int i = 0; i < ops; ++i) {
        Op op = i % 4 == 3
                    ? make_op(OpType::kCreateFile,
                              tree.dirs[static_cast<size_t>(i) %
                                        tree.dirs.size()] +
                                  "/c" + std::to_string(client_id) + "_" +
                                  std::to_string(i))
                    : make_op(OpType::kStat,
                              tree.files[static_cast<size_t>(
                                             client_id * 7 + i) %
                                         tree.files.size()]);
        OpResult r = co_await client.execute(std::move(op));
        completed += r.status.ok() ? 1 : 0;
    }
}

ns::BuiltTree
burst_tree(ns::NamespaceTree& tree)
{
    ns::TreeSpec spec;
    spec.root = "/t";
    spec.depth = 2;
    spec.fanout = 4;
    spec.files_per_dir = 4;
    return ns::build_balanced_tree(tree, spec, {}, 0);
}

TEST(HopsFs, ServerfulPoolNeverTouchesTheGateway)
{
    for (bool cached : {false, true}) {
        SCOPED_TRACE(cached ? "hopsfs+cache" : "hopsfs");
        Simulation sim;
        LambdaFs fs(sim, small_config(cached));
        const ns::BuiltTree tree = burst_tree(fs.authoritative_tree());
        const int pool = fs.active_name_nodes();
        EXPECT_EQ(pool, 4);

        // Every client issues at once: a burst λFS would scale out for.
        int completed = 0;
        for (size_t c = 0; c < fs.client_count(); ++c) {
            sim::spawn(co_burst(fs.client(c), tree, static_cast<int>(c), 40,
                                completed));
        }
        int min_alive = pool;
        int max_alive = pool;
        while (sim.now() < sim::sec(30) && sim.step()) {
            min_alive = std::min(min_alive, fs.active_name_nodes());
            max_alive = std::max(max_alive, fs.active_name_nodes());
        }
        EXPECT_EQ(completed, static_cast<int>(fs.client_count()) * 40);
        EXPECT_EQ(min_alive, pool);
        EXPECT_EQ(max_alive, pool);

        uint64_t http = 0;
        uint64_t tcp = 0;
        for (size_t c = 0; c < fs.client_count(); ++c) {
            http += fs.lfs_client(c).http_rpcs();
            tcp += fs.lfs_client(c).tcp_rpcs();
        }
        EXPECT_EQ(http, 0u);
        EXPECT_GE(tcp, static_cast<uint64_t>(completed));
        EXPECT_EQ(fs.platform().total_gateway_invocations(), 0u);
        EXPECT_EQ(fs.platform().total_cold_starts(), 0u);
        EXPECT_DOUBLE_EQ(fs.cost_so_far(), cost::vm_cost(64.0, sim.now()));
        EXPECT_DOUBLE_EQ(fs.simplified_cost_so_far(), fs.cost_so_far());
    }
}

TEST(HopsFs, VanillaSpreadsRequestsAcrossNameNodes)
{
    Simulation sim;
    LambdaFsConfig config = hopsfs_config(64.0, false);
    config.num_client_vms = 8;
    config.clients_per_vm = 8;
    LambdaFs fs(sim, config);
    const ns::BuiltTree tree = burst_tree(fs.authoritative_tree());

    // 64 clients start in the same instant, before any request has
    // reached a NameNode and raised its load.
    int completed = 0;
    for (size_t c = 0; c < fs.client_count(); ++c) {
        sim::spawn(
            co_burst(fs.client(c), tree, static_cast<int>(c), 20, completed));
    }
    sim.run_until(sim::sec(60));
    ASSERT_EQ(completed, 64 * 20);

    std::vector<faas::FunctionInstance*> pool =
        fs.platform().deployment(0).alive_instances();
    ASSERT_EQ(pool.size(), 4u);
    uint64_t least = UINT64_MAX;
    uint64_t most = 0;
    for (faas::FunctionInstance* nn : pool) {
        least = std::min(least, nn->requests_served());
        most = std::max(most, nn->requests_served());
    }
    EXPECT_GT(least, 0u);
    EXPECT_LE(static_cast<double>(most), 1.5 * static_cast<double>(least))
        << "most " << most << " least " << least;
}

}  // namespace
}  // namespace lfs::core
