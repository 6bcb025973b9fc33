/**
 * @file
 * Proves the write path's namespace mutations and the RPC reply cell are
 * allocation-free in steady state (DESIGN.md §10, §15):
 *
 *  - a warm NamespaceTree create -> mv -> stat -> ls -> delete cycle over
 *    already-interned names resolves by inode-id chain and allocates
 *    nothing;
 *  - a warm make_shared_one_shot make/set/wait/destroy cycle draws its
 *    cell from the frame pool and allocates nothing, including when the
 *    reply lands after the timeout won and the cell outlives its waiter;
 *  - a warm λFS stat/create/delete loop never asks the heap for more than
 *    the frame pool's largest class (FramePool::kMaxPooled): a coroutine
 *    frame that outgrows it (NameNode::handle's sits close) would cost a
 *    heap allocation on every op without anything failing;
 *  - the same loop's cache misses allocate nothing at all: store reads
 *    resolve into recycled chain buffers and trie nodes are pooled.
 *
 * The proof instruments the global allocator, so this test lives in its
 * own binary (one executable per test_*.cc). Component names stay within
 * the small-string buffer so the returned INode copies allocate nothing.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/core/lambda_fs.h"
#include "src/namespace/namespace_tree.h"
#include "src/sim/primitives.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace {

uint64_t g_allocations = 0;
/** Requests too large for any frame-pool class. */
uint64_t g_unpooled_allocations = 0;

}  // namespace

void*
operator new(std::size_t size)
{
    ++g_allocations;
    if (size > lfs::sim::detail::FramePool::kMaxPooled) {
        ++g_unpooled_allocations;
    }
    void* p = std::malloc(size);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace lfs {
namespace {

// ---------------------------------------------------------------------
// NamespaceTree mutations
// ---------------------------------------------------------------------

/** One create -> mv -> stat -> ls -> delete cycle; true if all succeed. */
bool
mutate_cycle(ns::NamespaceTree& tree, const ns::UserContext& user,
             sim::SimTime now)
{
    bool ok = tree.create_file("/w/a/f", user, now).ok();
    ok = tree.rename("/w/a/f", "/w/b/f", user, now).ok() && ok;
    ok = tree.stat("/w/b/f", user).ok() && ok;
    // An empty directory lists without a result buffer to fill.
    ok = tree.list("/w/e", user).ok() && ok;
    ok = tree.remove("/w/b/f", user, /*recursive=*/false, now).ok() && ok;
    return ok;
}

TEST(WritePathZeroAlloc, WarmNamespaceMutationCycleAllocatesNothing)
{
    ns::NamespaceTree tree;
    // A non-root principal, so every walk runs its permission checks.
    const ns::UserContext user{1000, 1000};
    ASSERT_TRUE(tree.mkdirs("/w", ns::UserContext{}, 0).ok());
    AttrUpdate to_alice;
    to_alice.mask = AttrUpdate::kOwner | AttrUpdate::kGroup;
    to_alice.owner = user.uid;
    to_alice.group = user.gid;
    ASSERT_TRUE(tree.setattr("/w", to_alice, ns::UserContext{}, 0).ok());
    for (const char* dir : {"/w/a", "/w/b", "/w/e"}) {
        ASSERT_TRUE(tree.mkdirs(dir, user, 0).ok());
    }
    // Warm: intern "f", grow the child tables, park a slab slot.
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(mutate_cycle(tree, user, i));
    }

    const uint64_t before = g_allocations;
    bool ok = true;
    for (int i = 0; i < 1000; ++i) {
        ok = mutate_cycle(tree, user, 10 + i) && ok;
    }
    const uint64_t allocs = g_allocations - before;
    EXPECT_TRUE(ok);
    EXPECT_EQ(allocs, 0u) << "NamespaceTree mutations allocated";
    EXPECT_EQ(tree.inode_count(), 5u);  // "/", /w, /w/a, /w/b, /w/e
}

// ---------------------------------------------------------------------
// Pooled OneShot reply cells
// ---------------------------------------------------------------------

int
timeout_value()
{
    return -1;
}

sim::Task<void>
co_reply(sim::Simulation& sim, std::shared_ptr<sim::OneShot<int>> cell,
         sim::SimTime after, int value)
{
    co_await sim::delay(sim, after);
    cell->try_set(value);
}

/** One RPC-shaped wait: a reply races a timeout into a shared cell. */
sim::Task<void>
co_rpc(sim::Simulation& sim, sim::SimTime reply_after, int& out)
{
    auto cell = sim::make_shared_one_shot<int>(sim);
    cell->expire_after(sim::msec(5), &timeout_value);
    sim::spawn(co_reply(sim, cell, reply_after, 7));
    out = co_await cell->wait();
}

/** Allocations made by @p rounds warm RPC waits with replies at @p after. */
uint64_t
rpc_allocations(sim::SimTime reply_after, int rounds, int expect)
{
    sim::Simulation sim;
    int out = 0;
    for (int i = 0; i < 4; ++i) {  // warm the frame pool and event nodes
        sim::spawn(co_rpc(sim, reply_after, out));
        sim.run();
        EXPECT_EQ(out, expect);
    }
    const uint64_t before = g_allocations;
    for (int i = 0; i < rounds; ++i) {
        out = 0;
        sim::spawn(co_rpc(sim, reply_after, out));
        sim.run();
        EXPECT_EQ(out, expect);
    }
    return g_allocations - before;
}

TEST(WritePathZeroAlloc, WarmOneShotCycleAllocatesNothing)
{
    EXPECT_EQ(rpc_allocations(sim::usec(100), 500, 7), 0u);
}

TEST(WritePathZeroAlloc, LateReplyOutlivesItsWaiterWithoutAllocating)
{
    // The timeout wins at 5 ms and the waiter finishes; the reply lands at
    // 8 ms on a cell only it still holds, loses the race, and releases
    // the cell back to the pool.
    EXPECT_EQ(rpc_allocations(sim::msec(8), 500, -1), 0u);
}

// ---------------------------------------------------------------------
// λFS op frames
// ---------------------------------------------------------------------

Op
make_op(OpType type, const char* p)
{
    Op op;
    op.type = type;
    op.path = p;
    return op;
}

/** @p cycles of stat (warm) -> create -> stat -> delete on one client. */
sim::Task<void>
co_op_cycles(workload::DfsClient& client, int cycles, int& failures,
             int& hits, bool& done)
{
    for (int i = 0; i < cycles; ++i) {
        OpResult warm =
            co_await client.execute(make_op(OpType::kStat, "/w/g"));
        failures += warm.status.ok() ? 0 : 1;
        hits += warm.cache_hit ? 1 : 0;
        for (OpType type :
             {OpType::kCreateFile, OpType::kStat, OpType::kDeleteFile}) {
            OpResult r = co_await client.execute(make_op(type, "/w/f"));
            failures += r.status.ok() ? 0 : 1;
        }
    }
    done = true;
}

/** Run @p cycles op cycles on @p fs's one client to completion. */
void
run_op_cycles(sim::Simulation& sim, core::LambdaFs& fs, int cycles,
              int& failures, int& hits)
{
    bool done = false;
    sim::spawn(co_op_cycles(fs.client(0), cycles, failures, hits, done));
    while (!done && sim.step()) {
    }
    ASSERT_TRUE(done);
}

core::LambdaFsConfig
op_cycle_config()
{
    core::LambdaFsConfig config;
    config.total_vcpus = 16.0;
    config.function.vcpus = 2.0;
    config.num_deployments = 2;
    config.num_client_vms = 1;
    config.clients_per_vm = 1;
    return config;
}

/** A one-client λFS over /w and /w/g, warmed by 50 op cycles. */
struct WarmOpCycles {
    sim::Simulation sim;
    core::LambdaFs fs{sim, op_cycle_config()};
    int failures = 0;
    int hits = 0;

    WarmOpCycles()
    {
        fs.preload("/w", ns::INodeType::kDirectory);
        fs.preload("/w/g", ns::INodeType::kFile);
        sim.run_until(sim::sec(5));
        // Warm: open the TCP connection, fill the caches and every pool.
        run_op_cycles(sim, fs, 50, failures, hits);
        hits = 0;
    }
};

TEST(WritePathZeroAlloc, LambdaFsOpFramesFitTheFramePool)
{
    WarmOpCycles rig;
    const uint64_t before = g_unpooled_allocations;
    run_op_cycles(rig.sim, rig.fs, 200, rig.failures, rig.hits);
    EXPECT_EQ(g_unpooled_allocations - before, 0u)
        << "an op took a coroutine frame (or other block) larger than "
           "FramePool::kMaxPooled from the heap";
    EXPECT_EQ(rig.failures, 0);
    EXPECT_GT(rig.hits, 100);
}

TEST(WritePathZeroAlloc, WarmLambdaFsMissLoopAllocatesNothing)
{
    // Each cycle's second stat misses (the create invalidated /w/f) and
    // reads the store: its chain fills a recycled buffer, and the trie
    // node the delete freed comes back from the frame pool.
    WarmOpCycles rig;
    const uint64_t before = g_allocations;
    run_op_cycles(rig.sim, rig.fs, 200, rig.failures, rig.hits);
    EXPECT_EQ(g_allocations - before, 0u)
        << "a warm stat/create/stat/delete cycle allocated";
    EXPECT_EQ(rig.failures, 0);
    EXPECT_GT(rig.hits, 100);
}

}  // namespace
}  // namespace lfs
