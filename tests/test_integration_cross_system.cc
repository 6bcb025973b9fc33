/**
 * @file
 * Cross-system integration tests: every Dfs implementation is driven
 * through the same workload machinery and checked for the paper's
 * *qualitative* relationships at miniature scale — λFS reads beat
 * stateless HopsFS once caches are warm, writes are store-bound
 * everywhere, InfiniCache pays gateway latency per op, and the
 * industrial workload driver completes on all systems.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "src/cephfs/cephfs.h"
#include "src/core/lambda_fs.h"
#include "src/indexfs/indexfs.h"
#include "src/namespace/tree_builder.h"
#include "src/workload/microbench.h"
#include "src/workload/spotify_workload.h"

namespace lfs {
namespace {

using sim::Simulation;

ns::BuiltTree
small_tree(ns::NamespaceTree& tree)
{
    ns::TreeSpec spec;
    spec.root = "/bench";
    spec.depth = 2;
    spec.fanout = 4;
    spec.files_per_dir = 4;
    return ns::build_balanced_tree(tree, spec, {}, 0);
}

workload::MicrobenchResult
bench_reads(Simulation& sim, workload::Dfs& dfs, int clients, int ops)
{
    workload::MicrobenchConfig config;
    config.op = OpType::kStat;
    config.num_clients = clients;
    config.ops_per_client = ops;
    config.warmup = sim::sec(4);
    return workload::run_microbench(sim, dfs,
                                    small_tree(dfs.authoritative_tree()),
                                    config);
}

TEST(CrossSystem, WarmLambdaReadsBeatStatelessHopsFs)
{
    double lambda_tput = 0;
    double hops_tput = 0;
    {
        Simulation sim;
        core::LambdaFsConfig config;
        config.total_vcpus = 64.0;
        config.function.vcpus = 4.0;
        config.num_deployments = 4;
        config.num_client_vms = 2;
        config.clients_per_vm = 16;
        core::LambdaFs fs(sim, config);
        lambda_tput = bench_reads(sim, fs, 32, 200).ops_per_sec;
    }
    {
        Simulation sim;
        core::LambdaFsConfig config = core::hopsfs_config(64.0, false);
        config.num_client_vms = 2;
        config.clients_per_vm = 16;
        core::LambdaFs fs(sim, config);
        hops_tput = bench_reads(sim, fs, 32, 200).ops_per_sec;
    }
    // 32 warm clients over 80 files: λFS serves from cache; HopsFS pays
    // the store round trip on every read.
    EXPECT_GT(lambda_tput, hops_tput * 2.0);
}

TEST(CrossSystem, WritesAreStoreBoundEverywhere)
{
    auto bench_creates = [](workload::Dfs& dfs, Simulation& sim) {
        workload::MicrobenchConfig config;
        config.op = OpType::kCreateFile;
        config.num_clients = 32;
        config.ops_per_client = 60;
        config.warmup = sim::sec(4);
        return workload::run_microbench(
            sim, dfs, small_tree(dfs.authoritative_tree()), config);
    };
    double lambda_tput = 0;
    double hops_tput = 0;
    {
        Simulation sim;
        core::LambdaFsConfig config;
        config.total_vcpus = 64.0;
        config.function.vcpus = 4.0;
        config.num_deployments = 4;
        config.num_client_vms = 2;
        config.clients_per_vm = 16;
        core::LambdaFs fs(sim, config);
        lambda_tput = bench_creates(fs, sim).ops_per_sec;
    }
    {
        Simulation sim;
        core::LambdaFsConfig config = core::hopsfs_config(64.0, false);
        config.num_client_vms = 2;
        config.clients_per_vm = 16;
        core::LambdaFs fs(sim, config);
        hops_tput = bench_creates(fs, sim).ops_per_sec;
    }
    // Same store model on both sides: creates land within ~2.5x of each
    // other (neither NameNode layer is the bottleneck).
    EXPECT_LT(lambda_tput / hops_tput, 2.5);
    EXPECT_GT(lambda_tput / hops_tput, 0.4);
}

TEST(CrossSystem, InfiniCachePaysGatewayLatencyPerOp)
{
    Simulation sim;
    core::LambdaFsConfig config = core::infinicache_config();
    config.num_deployments = 4;
    config.total_vcpus = 32.0;
    config.function.vcpus = 4.0;
    config.num_client_vms = 2;
    config.clients_per_vm = 8;
    core::LambdaFs fs(sim, config);
    fs.set_max_instances_per_deployment(1);
    workload::MicrobenchResult r = bench_reads(sim, fs, 16, 100);
    // Every op crosses the gateway twice: mean latency must sit in the
    // HTTP band (>= 7ms), far above the TCP-RPC systems.
    EXPECT_GT(r.mean_latency_ms, 7.0);
}

TEST(CrossSystem, SpotifyWorkloadCompletesOnAllSystems)
{
    workload::SpotifyConfig wcfg;
    wcfg.base_throughput = 300.0;
    wcfg.duration = sim::sec(40);
    wcfg.epoch = sim::sec(10);
    wcfg.num_client_vms = 2;

    auto run = [&](workload::Dfs& dfs, Simulation& sim) {
        sim.run_until(sim::sec(4));
        workload::SpotifyWorkload workload(
            sim, dfs, small_tree(dfs.authoritative_tree()), wcfg);
        workload.start();
        sim.run_until(sim.now() + sim::sec(200));
        EXPECT_TRUE(workload.finished()) << dfs.name();
        EXPECT_EQ(static_cast<int64_t>(dfs.metrics().completed() +
                                       dfs.metrics().failed()),
                  workload.offered())
            << dfs.name();
        EXPECT_EQ(dfs.metrics().failed(), 0u) << dfs.name();
    };
    {
        Simulation sim;
        core::LambdaFsConfig config;
        config.total_vcpus = 32.0;
        config.function.vcpus = 2.0;
        config.num_deployments = 4;
        config.num_client_vms = 2;
        config.clients_per_vm = 16;
        core::LambdaFs fs(sim, config);
        run(fs, sim);
    }
    {
        Simulation sim;
        core::LambdaFsConfig config = core::hopsfs_config(32.0, false);
        config.num_client_vms = 2;
        config.clients_per_vm = 16;
        core::LambdaFs fs(sim, config);
        run(fs, sim);
    }
    {
        Simulation sim;
        core::LambdaFsConfig config = core::infinicache_config();
        config.num_deployments = 4;
        config.total_vcpus = 32.0;
        config.function.vcpus = 4.0;
        config.num_client_vms = 2;
        config.clients_per_vm = 16;
        core::LambdaFs fs(sim, config);
        fs.set_max_instances_per_deployment(1);
        run(fs, sim);
    }
    {
        Simulation sim;
        cephfs::CephFsConfig config;
        config.num_mds = 2;
        config.num_client_vms = 2;
        config.clients_per_vm = 16;
        cephfs::CephFs fs(sim, config);
        run(fs, sim);
    }
}

sim::Task<void>
co_execute(workload::DfsClient& client, Op op, OpResult& out)
{
    out = co_await client.execute(std::move(op));
}

/** Open @p p for read as @p user, on a freshly started @p dfs. */
Code
read_file_as(Simulation& sim, workload::Dfs& dfs, ns::UserContext user,
             const std::string& p)
{
    Op op;
    op.type = OpType::kReadFile;
    op.path = p;
    op.user = user;
    OpResult out;
    sim::spawn(co_execute(dfs.client(0), std::move(op), out));
    sim.run_until(sim.now() + sim::sec(30));
    return out.status.code();
}

TEST(CrossSystem, OpenForReadChecksReadPermissionEverywhere)
{
    // A 0600 file owned by uid 1000: another user may stat the path but
    // must not open the file for read — the store-backed systems (λFS,
    // HopsFS) agree with CephFS, IndexFS and λIndexFS. The first read runs
    // on cold caches, so it reaches the authoritative check.
    const ns::UserContext owner{1000, 1000};
    const ns::UserContext other{2000, 2000};
    auto check = [&](workload::Dfs& dfs, Simulation& sim) {
        ns::NamespaceTree& tree = dfs.authoritative_tree();
        const ns::UserContext root;
        ASSERT_TRUE(tree.mkdirs("/home", root, 0).ok());
        ASSERT_TRUE(tree.create_file("/home/secret", root, 0).ok());
        AttrUpdate chown;
        chown.mask = AttrUpdate::kMode | AttrUpdate::kOwner |
                     AttrUpdate::kGroup;
        chown.mode = 0600;
        chown.owner = owner.uid;
        chown.group = owner.gid;
        ASSERT_TRUE(tree.setattr("/home/secret", chown, root, 0).ok());
        sim.run_until(sim::sec(5));
        EXPECT_EQ(read_file_as(sim, dfs, other, "/home/secret"),
                  Code::kPermissionDenied)
            << dfs.name();
        EXPECT_EQ(read_file_as(sim, dfs, owner, "/home/secret"), Code::kOk)
            << dfs.name();
    };
    {
        Simulation sim;
        core::LambdaFsConfig config;
        config.total_vcpus = 32.0;
        config.function.vcpus = 2.0;
        config.num_deployments = 4;
        config.num_client_vms = 1;
        config.clients_per_vm = 1;
        core::LambdaFs fs(sim, config);
        check(fs, sim);
    }
    {
        Simulation sim;
        core::LambdaFsConfig config = core::hopsfs_config(32.0, false);
        config.num_client_vms = 1;
        config.clients_per_vm = 1;
        core::LambdaFs fs(sim, config);
        check(fs, sim);
    }
    {
        Simulation sim;
        cephfs::CephFsConfig config;
        config.num_mds = 2;
        config.num_client_vms = 1;
        config.clients_per_vm = 1;
        cephfs::CephFs fs(sim, config);
        check(fs, sim);
    }
    {
        Simulation sim;
        indexfs::IndexFsConfig config;
        config.num_servers = 2;
        config.num_client_vms = 1;
        config.clients_per_vm = 1;
        indexfs::IndexFs fs(sim, config);
        check(fs, sim);
    }
    {
        Simulation sim;
        core::LambdaFsConfig config = core::lambda_indexfs_config();
        config.num_deployments = 2;
        config.total_vcpus = 16.0;
        config.store.num_data_nodes = 2;
        config.num_client_vms = 1;
        config.clients_per_vm = 1;
        core::LambdaFs fs(sim, config);
        check(fs, sim);
    }
}

/** Open @p p for read as @p user and return the full result. */
OpResult
open_as(Simulation& sim, workload::Dfs& dfs, ns::UserContext user,
        const std::string& p)
{
    Op op;
    op.type = OpType::kReadFile;
    op.path = p;
    op.user = user;
    OpResult out;
    sim::spawn(co_execute(dfs.client(0), std::move(op), out));
    sim.run_until(sim.now() + sim::sec(30));
    return out;
}

TEST(CrossSystem, WarmCacheOpenChecksReadPermission)
{
    // Regression: a cache hit answered open-for-read without the read
    // check. The owner opens its 0600 file twice, so the entry is cached
    // by the one NameNode / function there is (or leased by the one
    // IndexFS client); another user's open of the same file is then
    // answered from that warm cache and must still be denied, exactly as
    // on a cold cache.
    const ns::UserContext owner{1000, 1000};
    const ns::UserContext other{2000, 2000};
    auto check = [&](workload::Dfs& dfs, Simulation& sim) {
        ns::NamespaceTree& tree = dfs.authoritative_tree();
        const ns::UserContext root;
        ASSERT_TRUE(tree.mkdirs("/home", root, 0).ok());
        ASSERT_TRUE(tree.create_file("/home/mine", root, 0).ok());
        AttrUpdate chown;
        chown.mask = AttrUpdate::kMode | AttrUpdate::kOwner |
                     AttrUpdate::kGroup;
        chown.mode = 0600;
        chown.owner = owner.uid;
        chown.group = owner.gid;
        ASSERT_TRUE(tree.setattr("/home/mine", chown, root, 0).ok());
        sim.run_until(sim::sec(5));
        EXPECT_EQ(open_as(sim, dfs, owner, "/home/mine").status.code(),
                  Code::kOk)
            << dfs.name();
        OpResult warm = open_as(sim, dfs, owner, "/home/mine");
        EXPECT_EQ(warm.status.code(), Code::kOk) << dfs.name();
        EXPECT_TRUE(warm.cache_hit) << dfs.name() << ": second open missed";
        EXPECT_EQ(open_as(sim, dfs, other, "/home/mine").status.code(),
                  Code::kPermissionDenied)
            << dfs.name();
    };
    {
        Simulation sim;
        core::LambdaFsConfig config;
        config.total_vcpus = 32.0;
        config.function.vcpus = 2.0;
        config.num_deployments = 1;
        config.num_client_vms = 1;
        config.clients_per_vm = 1;
        core::LambdaFs fs(sim, config);
        check(fs, sim);
    }
    {
        Simulation sim;
        core::LambdaFsConfig config = core::hopsfs_config(16.0, true);
        config.num_client_vms = 1;
        config.clients_per_vm = 1;
        core::LambdaFs fs(sim, config);
        check(fs, sim);
    }
    {
        Simulation sim;
        core::LambdaFsConfig config = core::infinicache_config();
        config.num_deployments = 1;
        config.total_vcpus = 32.0;
        config.function.vcpus = 4.0;
        config.num_client_vms = 1;
        config.clients_per_vm = 1;
        core::LambdaFs fs(sim, config);
        fs.set_max_instances_per_deployment(1);
        check(fs, sim);
    }
    {
        Simulation sim;
        indexfs::IndexFsConfig config;
        config.num_servers = 2;
        // Each open drains 30 s of simulated time: the lease must outlast
        // the three of them.
        config.lease_ttl = sim::sec(1000);
        config.num_client_vms = 1;
        config.clients_per_vm = 1;
        indexfs::IndexFs fs(sim, config);
        check(fs, sim);
    }
    {
        Simulation sim;
        core::LambdaFsConfig config = core::lambda_indexfs_config();
        config.num_deployments = 1;
        config.total_vcpus = 16.0;
        config.store.num_data_nodes = 2;
        config.num_client_vms = 1;
        config.clients_per_vm = 1;
        core::LambdaFs fs(sim, config);
        check(fs, sim);
    }
}

TEST(CrossSystem, DeterministicAcrossRuns)
{
    auto run_once = [] {
        Simulation sim;
        core::LambdaFsConfig config;
        config.total_vcpus = 32.0;
        config.function.vcpus = 2.0;
        config.num_deployments = 4;
        config.num_client_vms = 2;
        config.clients_per_vm = 8;
        config.seed = 1234;
        core::LambdaFs fs(sim, config);
        workload::MicrobenchConfig mcfg;
        mcfg.op = OpType::kStat;
        mcfg.num_clients = 16;
        mcfg.ops_per_client = 50;
        workload::MicrobenchResult r = workload::run_microbench(
            sim, fs, small_tree(fs.authoritative_tree()), mcfg);
        return std::make_pair(sim.events_executed(), r.ops_per_sec);
    };
    auto a = run_once();
    auto b = run_once();
    EXPECT_EQ(a.first, b.first);
    EXPECT_DOUBLE_EQ(a.second, b.second);
}

}  // namespace
}  // namespace lfs
