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
 *    reply lands after the timeout won and the cell outlives its waiter.
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

#include "src/namespace/namespace_tree.h"
#include "src/sim/primitives.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace {

uint64_t g_allocations = 0;

}  // namespace

void*
operator new(std::size_t size)
{
    ++g_allocations;
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

}  // namespace
}  // namespace lfs
