/**
 * @file
 * Proves coroutine frames are pooled (DESIGN.md §10): once a process
 * shape has run, running it again — a spawn() over a nested chain of
 * Task awaits that suspends on the kernel — makes zero heap calls;
 * frames are recycled within their size class; parked frames go back to
 * the heap when a Simulation ends; and frames above the largest class
 * fall through to ::operator new and are freed again.
 *
 * The proof instruments the global allocator, so this test lives in its
 * own binary (the test CMake glob builds one executable per test_*.cc).
 */
#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "src/sim/primitives.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace {

uint64_t g_news = 0;
uint64_t g_deletes = 0;

void
counted_free(void* p) noexcept
{
    if (p != nullptr) {
        ++g_deletes;
    }
    std::free(p);
}

}  // namespace

void*
operator new(std::size_t size)
{
    ++g_news;
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
    counted_free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    counted_free(p);
}

void
operator delete[](void* p) noexcept
{
    counted_free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    counted_free(p);
}

namespace lfs::sim {
namespace {

using detail::FramePool;

/** Awaitable that yields the awaiting coroutine's frame address. */
struct FrameAddress {
    void* address = nullptr;

    bool await_ready() const noexcept { return false; }

    bool
    await_suspend(std::coroutine_handle<> h) noexcept
    {
        address = h.address();
        return false;  // resume at once
    }

    void* await_resume() const noexcept { return address; }
};

Task<int>
leaf(Simulation& sim)
{
    co_await delay(sim, usec(5));
    co_return 1;
}

Task<int>
nested(Simulation& sim, int depth)
{
    if (depth == 0) {
        co_return co_await leaf(sim);
    }
    int below = co_await nested(sim, depth - 1);
    co_await delay(sim, usec(1));
    co_return below + 1;
}

Task<void>
chain(Simulation& sim, int* sum)
{
    *sum += co_await nested(sim, 4);
}

/** Run @p n concurrent spawn + depth-4 chains to completion. */
int
run_chains(Simulation& sim, int n)
{
    int sum = 0;
    for (int i = 0; i < n; ++i) {
        spawn(chain(sim, &sum));
    }
    sim.run();
    return sum;
}

TEST(FramePool, WarmedNestedChainAndSpawnMakeNoHeapCalls)
{
    Simulation sim;
    EXPECT_EQ(run_chains(sim, 16), 16 * 5);  // warm pool and kernel

    const uint64_t news = g_news;
    const uint64_t deletes = g_deletes;
    EXPECT_EQ(run_chains(sim, 16), 16 * 5);
    EXPECT_EQ(g_news - news, 0u);
    EXPECT_EQ(g_deletes - deletes, 0u);
}

Task<void>
record_frame(void** out)
{
    *out = co_await FrameAddress{};
}

TEST(FramePool, FramesAreReusedWithinTheirSizeClass)
{
    // A coroutine's frame, once freed, is the next frame of its class.
    void* first = nullptr;
    void* second = nullptr;
    spawn(record_frame(&first));
    spawn(record_frame(&second));
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first, second);

    // Any size in the same 64-byte class gets the parked block back...
    void* a = FramePool::allocate(100);
    FramePool::deallocate(a, 100);
    void* b = FramePool::allocate(128);
    EXPECT_EQ(a, b);
    // ...while another class never does (a parked block stays parked
    // until a Simulation ends, so a fresh block cannot alias one).
    FramePool::deallocate(b, 128);
    void* c = FramePool::allocate(129);
    EXPECT_NE(c, a);
    void* d = FramePool::allocate(65);
    EXPECT_EQ(d, a);
    FramePool::deallocate(c, 129);
    FramePool::deallocate(d, 65);
    EXPECT_EQ(FramePool::size_class(64), 0u);
    EXPECT_EQ(FramePool::size_class(65), 1u);
    EXPECT_EQ(FramePool::size_class(FramePool::kMaxPooled),
              FramePool::kClasses - 1);
}

TEST(FramePool, ParkedFramesGoBackToTheHeapWhenASimulationEnds)
{
    // Each run starts from an empty pool, so its heap calls depend on
    // that run alone.
    auto sim = std::make_unique<Simulation>();
    void* p = FramePool::allocate(100);
    FramePool::deallocate(p, 100);
    const uint64_t deletes = g_deletes;
    sim.reset();
    EXPECT_GE(g_deletes - deletes, 1u);
    const uint64_t news = g_news;
    void* q = FramePool::allocate(100);
    EXPECT_EQ(g_news - news, 1u);
    FramePool::deallocate(q, 100);
}

Task<int>
oversize(Simulation& sim)
{
    // Live across a suspension, so the buffer sits in the frame.
    volatile char buffer[FramePool::kMaxPooled + 64];
    buffer[0] = 7;
    co_await delay(sim, usec(1));
    co_return buffer[0];
}

Task<void>
run_oversize(Simulation& sim, int* out)
{
    *out = co_await oversize(sim);
}

TEST(FramePool, OversizeFramesFallThroughToTheHeapAndAreFreed)
{
    Simulation sim;
    int out = 0;
    spawn(run_oversize(sim, &out));
    sim.run();
    EXPECT_EQ(out, 7);
    // Warm: only the oversize frame still touches the heap, once each way
    // (the pooled run_oversize frame is recycled).
    const uint64_t warm_news = g_news;
    const uint64_t warm_deletes = g_deletes;
    spawn(run_oversize(sim, &out));
    sim.run();
    EXPECT_EQ(g_news - warm_news, 1u);
    EXPECT_EQ(g_deletes - warm_deletes, 1u);
}

}  // namespace
}  // namespace lfs::sim
