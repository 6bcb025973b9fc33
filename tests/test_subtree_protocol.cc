/**
 * @file
 * Focused tests for the subtree coherence protocol (Appendix D): prefix
 * invalidation under concurrent reads, isolation of overlapping subtree
 * operations, serverless offloading's latency effect, and subtree-mv
 * visibility across partitions.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/lambda_fs.h"
#include "src/namespace/tree_builder.h"
#include "src/sim/simulation.h"

namespace lfs::core {
namespace {

using sim::Simulation;
using sim::Task;

LambdaFsConfig
proto_config()
{
    LambdaFsConfig config;
    config.num_deployments = 4;
    config.total_vcpus = 64.0;
    config.function.vcpus = 4.0;
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
co_execute_timed(Simulation& sim, workload::DfsClient& client, Op op,
                 OpResult& out, sim::SimTime& done_at)
{
    out = co_await client.execute(std::move(op));
    done_at = sim.now();
}

TEST(SubtreeProtocol, OverlappingSubtreeOpsSerialize)
{
    Simulation sim;
    LambdaFs fs(sim, proto_config());
    ns::UserContext root;
    ns::build_flat_directory(fs.authoritative_tree(), "/big/inner", 1500,
                             root, 0);
    fs.authoritative_tree().mkdirs("/dst", root, 0);
    sim.run_until(sim::sec(3));

    OpResult inner_result;
    OpResult outer_result;
    sim::SimTime inner_done = -1;
    sim::SimTime outer_done = -1;
    // Two overlapping subtree operations: mv of the inner subtree and
    // delete of its ancestor. The subtree flag must serialize them — and
    // exactly one interleaving outcome is legal for each.
    sim::spawn(co_execute_timed(
        sim, fs.client(0),
        make_op(OpType::kSubtreeMv, "/big/inner", "/dst/inner"),
        inner_result, inner_done));
    sim::spawn(co_execute_timed(sim, fs.client(9),
                                make_op(OpType::kSubtreeDelete, "/big"),
                                outer_result, outer_done));
    sim.run_until(sim.now() + sim::sec(600));
    ASSERT_GE(inner_done, 0);
    ASSERT_GE(outer_done, 0);
    // Whoever ran second saw the first's effect; both must be internally
    // consistent with the final tree.
    bool inner_exists = fs.authoritative_tree().stat("/dst/inner", root).ok();
    bool big_exists = fs.authoritative_tree().stat("/big", root).ok();
    EXPECT_FALSE(big_exists);  // the delete always wins eventually
    if (inner_result.status.ok() && inner_done < outer_done) {
        // mv committed first: the moved subtree survives the delete.
        EXPECT_TRUE(inner_exists);
    }
}

TEST(SubtreeProtocol, ReadsDuringSubtreeOpSeeBeforeOrAfterNeverHalf)
{
    Simulation sim;
    LambdaFs fs(sim, proto_config());
    ns::UserContext root;
    ns::build_flat_directory(fs.authoritative_tree(), "/sub", 3000, root, 0);
    fs.authoritative_tree().mkdirs("/dst", root, 0);
    sim.run_until(sim::sec(3));

    // Warm some cache entries under /sub.
    for (int i = 0; i < 5; ++i) {
        OpResult warm;
        sim::SimTime warm_done = -1;
        sim::spawn(co_execute_timed(
            sim, fs.client(static_cast<size_t>(i)),
            make_op(OpType::kStat, "/sub/f" + std::to_string(i * 100)),
            warm, warm_done));
        sim.run_until(sim.now() + sim::sec(2));
    }

    OpResult mv_result;
    sim::SimTime mv_done = -1;
    sim::spawn(co_execute_timed(
        sim, fs.client(0), make_op(OpType::kSubtreeMv, "/sub", "/dst/sub"),
        mv_result, mv_done));

    // Concurrent readers: every result must be either the old path's
    // pre-state (OK before commit) or NOT_FOUND (after); the new path is
    // OK only once the mv committed.
    struct Probe {
        OpResult result;
        sim::SimTime at = -1;
        bool old_path;
    };
    std::vector<std::unique_ptr<Probe>> probes;
    for (int i = 0; i < 12; ++i) {
        auto probe = std::make_unique<Probe>();
        probe->old_path = i % 2 == 0;
        std::string target = probe->old_path
                                 ? "/sub/f" + std::to_string(i * 37)
                                 : "/dst/sub/f" + std::to_string(i * 37);
        Op stat;
        stat.type = OpType::kStat;
        stat.path = target;
        sim.schedule(sim::msec(200) * i, [&sim, &fs, i, stat,
                                          p = probe.get()] {
            sim::spawn(co_execute_timed(
                sim, fs.client(static_cast<size_t>(i % 16)), stat,
                p->result, p->at));
        });
        probes.push_back(std::move(probe));
    }
    sim.run_until(sim.now() + sim::sec(600));
    ASSERT_TRUE(mv_result.status.ok());
    for (const auto& probe : probes) {
        ASSERT_GE(probe->at, 0);
        if (probe->old_path) {
            if (probe->at > mv_done) {
                EXPECT_EQ(probe->result.status.code(), Code::kNotFound);
            }
            // Before commit both OK and NOT_FOUND(blocked then retried)
            // are legal; staleness (OK *after* commit) is not.
        } else {
            if (probe->result.status.ok()) {
                // New path only becomes visible at/after commit.
                EXPECT_GE(probe->at, mv_done);
            }
        }
    }
}

TEST(SubtreeProtocol, OffloadingReducesLatency)
{
    auto run_mv = [](bool offload) {
        Simulation sim;
        LambdaFsConfig config = proto_config();
        config.name_node.offload_subtree = offload;
        config.name_node.subtree_per_row_cpu = sim::usec(24);  // accentuate
        LambdaFs fs(sim, config);
        ns::UserContext root;
        ns::build_flat_directory(fs.authoritative_tree(), "/sub", 20000,
                                 root, 0);
        fs.authoritative_tree().mkdirs("/dst", root, 0);
        sim.run_until(sim::sec(3));
        OpResult result;
        sim::SimTime done = -1;
        sim::SimTime begin = sim.now();
        sim::spawn(co_execute_timed(
            sim, fs.client(0),
            make_op(OpType::kSubtreeMv, "/sub", "/dst/sub"), result, done));
        while (done < 0 && sim.step()) {
        }
        EXPECT_TRUE(result.status.ok());
        return done - begin;
    };
    sim::SimTime with_offload = run_mv(true);
    sim::SimTime without = run_mv(false);
    EXPECT_LT(with_offload, without);
}

TEST(SubtreeProtocol, PrefixInvalidationCountsMatchCachedEntries)
{
    Simulation sim;
    LambdaFs fs(sim, proto_config());
    ns::UserContext root;
    ns::build_flat_directory(fs.authoritative_tree(), "/sub", 200, root, 0);
    sim.run_until(sim::sec(3));
    // Read every file so the owning deployment caches the whole dir.
    for (int i = 0; i < 200; i += 10) {
        OpResult r;
        sim::SimTime done = -1;
        sim::spawn(co_execute_timed(
            sim, fs.client(static_cast<size_t>(i % 16)),
            make_op(OpType::kStat, "/sub/f" + std::to_string(i)), r, done));
        while (done < 0 && sim.step()) {
        }
    }
    OpResult del;
    sim::SimTime del_done = -1;
    sim::spawn(co_execute_timed(sim, fs.client(0),
                                make_op(OpType::kSubtreeDelete, "/sub"), del,
                                del_done));
    sim.run_until(sim.now() + sim::sec(120));
    ASSERT_TRUE(del.status.ok());
    // Nothing under /sub may survive in any NameNode cache: re-reads all
    // miss (NOT_FOUND), regardless of which client/connection asks.
    for (int i = 0; i < 200; i += 10) {
        OpResult r;
        sim::SimTime done = -1;
        sim::spawn(co_execute_timed(
            sim, fs.client(static_cast<size_t>((i + 3) % 16)),
            make_op(OpType::kStat, "/sub/f" + std::to_string(i)), r, done));
        while (done < 0 && sim.step()) {
        }
        ASSERT_GE(done, 0) << i;
        EXPECT_EQ(r.status.code(), Code::kNotFound) << i;
    }
}

}  // namespace
}  // namespace lfs::core
