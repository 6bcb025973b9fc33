/**
 * @file
 * Tests for the persistent metadata store model: lock table semantics,
 * data-node queueing, timed read/write transactions, serializability of
 * concurrent writers, and subtree operations.
 */
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/net/network.h"
#include "src/sim/primitives.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/store/lock_table.h"
#include "src/store/metadata_store.h"

namespace lfs::store {
namespace {

using sim::Simulation;
using sim::Task;

struct StoreFixture {
    Simulation sim;
    net::Network network{sim, sim::Rng(1)};
    MetadataStore store{sim, network, sim::Rng(2)};
};

// ---------------------------------------------------------------------
// LockTable
// ---------------------------------------------------------------------

Task<void>
co_hold_exclusive(Simulation& sim, LockTable& locks, ns::INodeId id,
                  sim::SimTime hold, std::vector<int>& order, int tag)
{
    co_await locks.lock_exclusive(id);
    order.push_back(tag);
    co_await sim::delay(sim, hold);
    locks.unlock_exclusive(id);
}

TEST(LockTable, ExclusiveLocksSerialize)
{
    Simulation sim;
    LockTable locks(sim);
    std::vector<int> order;
    for (int i = 0; i < 3; ++i) {
        sim::spawn(co_hold_exclusive(sim, locks, 7, sim::msec(10), order, i));
    }
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(sim.now(), sim::msec(30));
    EXPECT_FALSE(locks.is_locked(7));
}

Task<void>
co_hold_shared(Simulation& sim, LockTable& locks, ns::INodeId id,
               sim::SimTime hold, int& active, int& max_active)
{
    co_await locks.lock_shared(id);
    ++active;
    max_active = std::max(max_active, active);
    co_await sim::delay(sim, hold);
    --active;
    locks.unlock_shared(id);
}

TEST(LockTable, SharedLocksRunConcurrently)
{
    Simulation sim;
    LockTable locks(sim);
    int active = 0;
    int max_active = 0;
    for (int i = 0; i < 4; ++i) {
        sim::spawn(
            co_hold_shared(sim, locks, 5, sim::msec(10), active, max_active));
    }
    sim.run();
    EXPECT_EQ(max_active, 4);
    EXPECT_EQ(sim.now(), sim::msec(10));
}

Task<void>
co_shared_after(Simulation& sim, LockTable& locks, ns::INodeId id,
                sim::SimTime start, std::vector<std::string>& events,
                std::string name)
{
    co_await sim::delay(sim, start);
    co_await locks.lock_shared(id);
    events.push_back(name);
    co_await sim::delay(sim, sim::msec(5));
    locks.unlock_shared(id);
}

Task<void>
co_exclusive_after(Simulation& sim, LockTable& locks, ns::INodeId id,
                   sim::SimTime start, std::vector<std::string>& events,
                   std::string name)
{
    co_await sim::delay(sim, start);
    co_await locks.lock_exclusive(id);
    events.push_back(name);
    co_await sim::delay(sim, sim::msec(5));
    locks.unlock_exclusive(id);
}

TEST(LockTable, WriterNotStarvedByLateReaders)
{
    Simulation sim;
    LockTable locks(sim);
    std::vector<std::string> events;
    // r1 holds; writer queues; r2 arrives later and must queue behind the
    // writer (FIFO), not jump ahead.
    sim::spawn(co_shared_after(sim, locks, 1, 0, events, "r1"));
    sim::spawn(co_exclusive_after(sim, locks, 1, sim::msec(1), events, "w"));
    sim::spawn(co_shared_after(sim, locks, 1, sim::msec(2), events, "r2"));
    sim.run();
    EXPECT_EQ(events, (std::vector<std::string>{"r1", "w", "r2"}));
}

using Grants = std::vector<std::pair<std::string, sim::SimTime>>;

Task<void>
co_log_grant(Simulation& sim, LockTable& locks, ns::INodeId id,
             bool exclusive, sim::SimTime start, sim::SimTime hold,
             Grants& grants, std::string name)
{
    co_await sim::delay(sim, start);
    if (exclusive) {
        co_await locks.lock_exclusive(id);
    } else {
        co_await locks.lock_shared(id);
    }
    grants.emplace_back(std::move(name), sim.now());
    co_await sim::delay(sim, hold);
    if (exclusive) {
        locks.unlock_exclusive(id);
    } else {
        locks.unlock_shared(id);
    }
}

TEST(LockTable, GrantOrderIsFifoWithBatchedSharedGrantsPerRow)
{
    Simulation sim;
    LockTable locks(sim);
    const auto ms = [](int n) { return sim::msec(n); };
    // Row 1: a writer holds; readers, a writer and more readers queue.
    // The two readers ahead of w3 are granted together; w3 waits for
    // both; the readers behind w3 are granted together after it.
    Grants row1;
    sim::spawn(co_log_grant(sim, locks, 1, true, 0, ms(10), row1, "w0"));
    sim::spawn(co_log_grant(sim, locks, 1, false, ms(1), ms(5), row1, "r1"));
    sim::spawn(co_log_grant(sim, locks, 1, false, ms(2), ms(6), row1, "r2"));
    sim::spawn(co_log_grant(sim, locks, 1, true, ms(3), ms(4), row1, "w3"));
    sim::spawn(co_log_grant(sim, locks, 1, false, ms(4), ms(2), row1, "r4"));
    sim::spawn(co_log_grant(sim, locks, 1, false, ms(5), ms(2), row1, "r5"));
    // Row 2, interleaved in time: its queue is independent of row 1's.
    Grants row2;
    sim::spawn(co_log_grant(sim, locks, 2, false, 0, ms(8), row2, "s0"));
    sim::spawn(co_log_grant(sim, locks, 2, true, ms(1), ms(3), row2, "x1"));
    sim::spawn(co_log_grant(sim, locks, 2, false, ms(2), ms(1), row2, "s2"));
    // Row 3: a lone exclusive request is granted at once.
    Grants row3;
    sim::spawn(co_log_grant(sim, locks, 3, true, ms(3), ms(1), row3, "e0"));
    sim.run();

    EXPECT_EQ(row1, (Grants{{"w0", 0},
                            {"r1", ms(10)},
                            {"r2", ms(10)},
                            {"w3", ms(16)},
                            {"r4", ms(20)},
                            {"r5", ms(20)}}));
    EXPECT_EQ(row2, (Grants{{"s0", 0}, {"x1", ms(8)}, {"s2", ms(11)}}));
    EXPECT_EQ(row3, (Grants{{"e0", ms(3)}}));
    for (ns::INodeId id : {1, 2, 3}) {
        EXPECT_FALSE(locks.is_locked(id)) << id;
    }
}

TEST(LockTable, SubtreeOverlapDetection)
{
    Simulation sim;
    LockTable locks(sim);
    ASSERT_TRUE(locks.try_acquire_subtree("/a/b").ok());
    // Descendant, ancestor, and self all conflict.
    EXPECT_FALSE(locks.try_acquire_subtree("/a/b/c").ok());
    EXPECT_FALSE(locks.try_acquire_subtree("/a").ok());
    EXPECT_FALSE(locks.try_acquire_subtree("/a/b").ok());
    // Disjoint subtree is fine.
    EXPECT_TRUE(locks.try_acquire_subtree("/a/z").ok());
    EXPECT_TRUE(locks.overlaps_active_subtree("/a/b/file"));
    EXPECT_FALSE(locks.overlaps_active_subtree("/q"));
    locks.release_subtree("/a/b");
    EXPECT_TRUE(locks.try_acquire_subtree("/a/b/c").ok());
}

// ---------------------------------------------------------------------
// DataNode queueing
// ---------------------------------------------------------------------

Task<void>
co_data_node_read(DataNode& node, int& done)
{
    sim::LatencyLedger ledger;
    co_await node.execute_read(ledger);
    ++done;
}

TEST(DataNode, ConcurrencyBoundsThroughput)
{
    Simulation sim;
    DataNodeConfig config;
    config.concurrency = 2;
    config.read_service_min = sim::msec(1);
    config.read_service_max = sim::msec(1);
    DataNode node(sim, sim::Rng(3), config);
    int done = 0;
    for (int i = 0; i < 10; ++i) {
        sim::spawn(co_data_node_read(node, done));
    }
    sim.run();
    EXPECT_EQ(done, 10);
    // 10 jobs, 2-wide, 1ms each => 5ms.
    EXPECT_EQ(sim.now(), sim::msec(5));
    EXPECT_EQ(node.reads_served(), 10u);
}

// ---------------------------------------------------------------------
// MetadataStore
// ---------------------------------------------------------------------

Task<void>
co_run_op(MetadataStore& store, Op op, OpResult& out)
{
    if (is_read_op(op.type)) {
        out = co_await store.read_op(op);
    } else if (is_subtree_op(op.type)) {
        out = co_await store.subtree_op(op);
    } else {
        out = co_await store.write_op(op);
    }
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

TEST(MetadataStore, WriteThenReadRoundTrip)
{
    StoreFixture f;
    OpResult create_result;
    OpResult read_result;
    sim::spawn(
        co_run_op(f.store, make_op(OpType::kMkdir, "/d"), create_result));
    f.sim.run();
    ASSERT_TRUE(create_result.status.ok());

    sim::spawn(co_run_op(f.store, make_op(OpType::kCreateFile, "/d/f"),
                         create_result));
    f.sim.run();
    ASSERT_TRUE(create_result.status.ok());

    sim::spawn(
        co_run_op(f.store, make_op(OpType::kReadFile, "/d/f"), read_result));
    f.sim.run();
    ASSERT_TRUE(read_result.status.ok());
    EXPECT_EQ(read_result.inode.name, "f");
    ASSERT_EQ(read_result.chain.size(), 3u);
    EXPECT_EQ(f.store.total_reads(), 1u);
    EXPECT_EQ(f.store.total_writes(), 2u);
}

TEST(MetadataStore, ReadTakesNonZeroSimulatedTime)
{
    StoreFixture f;
    f.store.tree().mkdirs("/d", ns::UserContext{}, 0);
    f.store.tree().create_file("/d/f", ns::UserContext{}, 0);
    OpResult result;
    sim::spawn(co_run_op(f.store, make_op(OpType::kStat, "/d/f"), result));
    f.sim.run();
    ASSERT_TRUE(result.status.ok());
    EXPECT_GT(f.sim.now(), 0);
    EXPECT_LT(f.sim.now(), sim::msec(10));
}

TEST(MetadataStore, ErrorsPropagate)
{
    StoreFixture f;
    OpResult result;
    sim::spawn(
        co_run_op(f.store, make_op(OpType::kReadFile, "/missing"), result));
    f.sim.run();
    EXPECT_EQ(result.status.code(), Code::kNotFound);
}

TEST(MetadataStore, ConcurrentCreatesInOneDirectorySerialize)
{
    StoreFixture f;
    f.store.tree().mkdirs("/d", ns::UserContext{}, 0);
    const int kOps = 20;
    std::vector<OpResult> results(kOps);
    for (int i = 0; i < kOps; ++i) {
        sim::spawn(co_run_op(
            f.store,
            make_op(OpType::kCreateFile, "/d/f" + std::to_string(i)),
            results[i]));
    }
    f.sim.run();
    for (int i = 0; i < kOps; ++i) {
        EXPECT_TRUE(results[i].status.ok()) << i;
    }
    EXPECT_EQ(f.store.tree().children(
                  f.store.tree().stat("/d", ns::UserContext{})->id)
                  .size(),
              static_cast<size_t>(kOps));
    // Writes on one parent hold the parent's exclusive row lock, so the
    // elapsed time is at least kOps serialized write services.
    EXPECT_GE(f.sim.now(),
              f.store.config().data_node.write_service_min * kOps);
}

TEST(MetadataStore, ConflictingCreatesOneWinner)
{
    StoreFixture f;
    f.store.tree().mkdirs("/d", ns::UserContext{}, 0);
    const int kRacers = 8;
    std::vector<OpResult> results(kRacers);
    for (int i = 0; i < kRacers; ++i) {
        sim::spawn(co_run_op(f.store, make_op(OpType::kCreateFile, "/d/same"),
                             results[i]));
    }
    f.sim.run();
    int winners = 0;
    for (const auto& r : results) {
        if (r.status.ok()) {
            ++winners;
        } else {
            EXPECT_EQ(r.status.code(), Code::kAlreadyExists);
        }
    }
    EXPECT_EQ(winners, 1);
}

Task<void>
co_mv_holding(Simulation& sim, MetadataStore& store, Op op, int& completed)
{
    // Hold the row locks across a simulated delay, as a coherence round
    // does, so opposite-direction moves really contend.
    auto hold = [&sim]() -> Task<void> {
        co_await sim::delay(sim, sim::msec(1));
    };
    OpResult r = co_await store.write_op(op, hold);
    if (r.status.ok()) {
        ++completed;
    }
}

TEST(MetadataStore, OppositeMovesAcquireLocksInIdOrder)
{
    // mv /a/fi -> /b/fi locks {a, a/fi, b} while mv /b/gi -> /a/gi locks
    // {b, b/gi, a}: textual order would deadlock the pair; the store's
    // ascending-id acquisition must let all of them commit.
    StoreFixture f;
    const ns::UserContext root;
    f.store.tree().mkdirs("/a", root, 0);
    f.store.tree().mkdirs("/b", root, 0);
    const int kPairs = 50;
    for (int i = 0; i < kPairs; ++i) {
        f.store.tree().create_file("/a/f" + std::to_string(i), root, 0);
        f.store.tree().create_file("/b/g" + std::to_string(i), root, 0);
    }
    int completed = 0;
    for (int i = 0; i < kPairs; ++i) {
        const std::string f_name = "f" + std::to_string(i);
        const std::string g_name = "g" + std::to_string(i);
        sim::spawn(co_mv_holding(
            f.sim, f.store,
            make_op(OpType::kMv, "/a/" + f_name, "/b/" + f_name),
            completed));
        sim::spawn(co_mv_holding(
            f.sim, f.store,
            make_op(OpType::kMv, "/b/" + g_name, "/a/" + g_name),
            completed));
    }
    f.sim.run();
    EXPECT_EQ(completed, 2 * kPairs);
    // Every move held both parents exclusively for its 1 ms hook.
    EXPECT_GE(f.sim.now(), sim::msec(2 * kPairs));
    EXPECT_EQ(f.store.tree().children(f.store.tree().stat("/a", root)->id)
                  .size(),
              static_cast<size_t>(kPairs));
}

TEST(MetadataStore, SubtreeDeleteRemovesEverything)
{
    StoreFixture f;
    ns::UserContext root;
    f.store.tree().mkdirs("/big/sub", root, 0);
    for (int i = 0; i < 100; ++i) {
        f.store.tree().create_file("/big/sub/f" + std::to_string(i), root, 0);
    }
    OpResult result;
    sim::spawn(
        co_run_op(f.store, make_op(OpType::kSubtreeDelete, "/big"), result));
    f.sim.run();
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.inodes_touched, 102);
    EXPECT_EQ(f.store.tree().stat("/big", root).code(), Code::kNotFound);
}

TEST(MetadataStore, SubtreeMvLatencyGrowsWithSize)
{
    auto run_mv = [](int64_t files) {
        StoreFixture f;
        ns::UserContext root;
        f.store.tree().mkdirs("/src", root, 0);
        f.store.tree().mkdirs("/dstp", root, 0);
        for (int64_t i = 0; i < files; ++i) {
            f.store.tree().create_file("/src/f" + std::to_string(i), root, 0);
        }
        OpResult result;
        sim::spawn(co_run_op(
            f.store, make_op(OpType::kSubtreeMv, "/src", "/dstp/moved"),
            result));
        f.sim.run();
        EXPECT_TRUE(result.status.ok());
        return f.sim.now();
    };
    sim::SimTime small = run_mv(500);
    sim::SimTime large = run_mv(2000);
    EXPECT_GT(large, small * 2);
    EXPECT_LT(large, small * 8);
}

Task<void>
co_delayed_stat(Simulation& sim, MetadataStore& store, std::string p,
                OpResult& out, sim::SimTime& done_at)
{
    co_await sim::delay(sim, sim::msec(1));
    Op op = make_op(OpType::kStat, std::move(p));
    out = co_await store.read_op(op);
    done_at = sim.now();
}

TEST(MetadataStore, ReadsBlockDuringOverlappingSubtreeOp)
{
    StoreFixture f;
    ns::UserContext root;
    f.store.tree().mkdirs("/sub", root, 0);
    for (int i = 0; i < 2000; ++i) {
        f.store.tree().create_file("/sub/f" + std::to_string(i), root, 0);
    }
    OpResult subtree_result;
    OpResult read_result;
    sim::SimTime read_done = 0;
    sim::spawn(co_run_op(f.store, make_op(OpType::kSubtreeDelete, "/sub"),
                         subtree_result));
    sim::spawn(co_delayed_stat(f.sim, f.store, "/sub/f0", read_result,
                               read_done));
    f.sim.run();
    ASSERT_TRUE(subtree_result.status.ok());
    // The read waited for the subtree op and then found the file gone.
    EXPECT_EQ(read_result.status.code(), Code::kNotFound);
    EXPECT_GT(read_done, sim::msec(20));
}

}  // namespace
}  // namespace lfs::store
