/**
 * @file
 * Proves the store's row-lock table is allocation-free in steady state
 * (DESIGN.md §10): its rows live in a flat table sized by the number of
 * rows locked at once, so once that peak has been reached, lock/unlock
 * cycles over many rows — contended ones included — make zero heap
 * calls. Also checks that growing the table while waiters are queued
 * keeps FIFO grant order (rows move when the table grows; their queued
 * waiters must not).
 *
 * The proof instruments the global allocator, so this test lives in its
 * own binary (the test CMake glob builds one executable per test_*.cc).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/primitives.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"
#include "src/store/lock_table.h"

namespace {

uint64_t g_allocations = 0;

}  // namespace

void*
operator new(std::size_t size)
{
    ++g_allocations;
    void* p = std::malloc(size == 0 ? 1 : size);
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

namespace lfs::store {
namespace {

using sim::Simulation;
using sim::Task;

/** Lock rows [first, first + rows) ascending, hold, release in reverse. */
Task<void>
hold_rows(Simulation& sim, LockTable& locks, ns::INodeId first, int rows,
          bool exclusive, sim::SimTime start)
{
    co_await sim::delay(sim, start);
    for (int i = 0; i < rows; ++i) {
        if (exclusive) {
            co_await locks.lock_exclusive(first + i);
        } else {
            co_await locks.lock_shared(first + i);
        }
    }
    co_await sim::delay(sim, sim::usec(10));
    for (int i = rows - 1; i >= 0; --i) {
        if (exclusive) {
            locks.unlock_exclusive(first + i);
        } else {
            locks.unlock_shared(first + i);
        }
    }
}

/** One contended cycle: writers and readers over overlapping rows. */
void
lock_cycle(Simulation& sim, LockTable& locks)
{
    sim::spawn(hold_rows(sim, locks, 1, 512, true, 0));
    sim::spawn(hold_rows(sim, locks, 257, 512, false, sim::usec(1)));
    sim::spawn(hold_rows(sim, locks, 257, 512, false, sim::usec(2)));
    sim::spawn(hold_rows(sim, locks, 1, 512, true, sim::usec(3)));
    sim.run();
}

TEST(LockTableZeroAlloc, LockUnlockCyclesAllocateNothing)
{
    Simulation sim;
    LockTable locks(sim);
    lock_cycle(sim, locks);  // warm-up: frame pool, event queue, rows
    lock_cycle(sim, locks);
    uint64_t before = g_allocations;
    for (int round = 0; round < 8; ++round) {
        lock_cycle(sim, locks);
    }
    uint64_t allocated = g_allocations - before;
    EXPECT_EQ(allocated, 0u)
        << "steady-state lock/unlock cycles performed " << allocated
        << " heap allocations";
    for (ns::INodeId id = 1; id <= 768; ++id) {
        ASSERT_FALSE(locks.is_locked(id)) << id;
    }
}

using Grants = std::vector<std::pair<std::string, sim::SimTime>>;

Task<void>
log_grant(Simulation& sim, LockTable& locks, ns::INodeId id, bool exclusive,
          sim::SimTime start, sim::SimTime hold, Grants& grants,
          std::string name)
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

TEST(LockTableZeroAlloc, GrowthWithQueuedWaitersKeepsFifoOrder)
{
    Simulation sim;
    LockTable locks(sim);
    const auto ms = [](int n) { return sim::msec(n); };
    // Row 7: a writer holds for 10 ms while a writer, two readers and a
    // writer queue behind it.
    Grants row7;
    sim::spawn(log_grant(sim, locks, 7, true, 0, ms(10), row7, "w0"));
    sim::spawn(log_grant(sim, locks, 7, true, ms(1), ms(2), row7, "w1"));
    sim::spawn(log_grant(sim, locks, 7, false, ms(2), ms(3), row7, "r2"));
    sim::spawn(log_grant(sim, locks, 7, false, ms(3), ms(1), row7, "r3"));
    sim::spawn(log_grant(sim, locks, 7, true, ms(4), ms(1), row7, "w4"));
    // At 5 ms, with all four queued, 4096 more rows are locked at once:
    // the table grows several times and row 7 moves with it.
    sim::spawn(hold_rows(sim, locks, 1000, 4096, true, ms(5)));
    sim.run();
    EXPECT_EQ(row7, (Grants{{"w0", 0},
                            {"w1", ms(10)},
                            {"r2", ms(12)},
                            {"r3", ms(12)},
                            {"w4", ms(15)}}));
    EXPECT_FALSE(locks.is_locked(7));
    EXPECT_FALSE(locks.is_locked(1000));
}

}  // namespace
}  // namespace lfs::store
