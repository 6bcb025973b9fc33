/**
 * @file
 * Unit tests for the deployment-scoped retained-result cache (§3.2):
 * done hits, in-flight joins, first-completion-wins, FIFO eviction,
 * the disabled mode, and an allocation-free warm round.
 *
 * The zero-allocation proof instruments the global allocator, so this
 * suite lives in its own binary (one executable per test_*.cc).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "src/core/result_cache.h"
#include "src/sim/primitives.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace {

uint64_t g_heap_calls = 0;

}  // namespace

void*
operator new(std::size_t size)
{
    ++g_heap_calls;
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
    if (p != nullptr) {
        ++g_heap_calls;
    }
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void* p) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    ::operator delete(p);
}

namespace lfs::core {
namespace {

OpResult
make_result(int64_t inode_id, Code code = Code::kOk)
{
    OpResult r;
    if (code != Code::kOk) {
        r.status = Status(code, "failed");
    }
    r.inode.id = static_cast<ns::INodeId>(inode_id);
    r.inode.name = "f" + std::to_string(inode_id);
    r.children = {"a", "b"};
    r.inodes_touched = inode_id;
    r.stats.files = inode_id;
    r.cache_hit = true;
    r.via_symlink = true;
    return r;
}

/** lookup_or_begin() run to completion from a fresh process. */
sim::Task<void>
co_lookup(ResultCache& cache, uint64_t op_id,
          std::optional<OpResult>& out)
{
    out = co_await cache.lookup_or_begin(op_id);
}

std::optional<OpResult>
lookup(sim::Simulation& sim, ResultCache& cache, uint64_t op_id)
{
    std::optional<OpResult> out;
    sim::spawn(co_lookup(cache, op_id, out));
    sim.run();
    return out;
}

void
expect_same_observable(const OpResult& got, const OpResult& want)
{
    EXPECT_EQ(got.status.code(), want.status.code());
    EXPECT_EQ(got.inode.id, want.inode.id);
    EXPECT_EQ(got.inode.name, want.inode.name);
    EXPECT_EQ(got.children, want.children);
    EXPECT_EQ(got.inodes_touched, want.inodes_touched);
    EXPECT_EQ(got.stats.files, want.stats.files);
    EXPECT_EQ(got.cache_hit, want.cache_hit);
    EXPECT_EQ(got.via_symlink, want.via_symlink);
}

TEST(ResultCache, HitAfterComplete)
{
    sim::Simulation sim;
    ResultCache cache(sim, 16);
    EXPECT_FALSE(lookup(sim, cache, 7).has_value());  // first: execute
    cache.complete(7, make_result(70));
    auto hit = lookup(sim, cache, 7);
    ASSERT_TRUE(hit.has_value());
    expect_same_observable(*hit, make_result(70));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_FALSE(lookup(sim, cache, 0).has_value());  // id 0: untracked
}

TEST(ResultCache, InFlightDuplicateJoinsAndGetsTheOriginalResult)
{
    sim::Simulation sim;
    ResultCache cache(sim, 16);
    EXPECT_FALSE(lookup(sim, cache, 9).has_value());
    std::optional<OpResult> first_dup;
    std::optional<OpResult> second_dup;
    sim::spawn(co_lookup(cache, 9, first_dup));
    sim::spawn(co_lookup(cache, 9, second_dup));
    sim.run();
    EXPECT_FALSE(first_dup.has_value());  // parked on the original
    sim.schedule(sim::msec(3), [&] { cache.complete(9, make_result(90)); });
    sim.run();
    ASSERT_TRUE(first_dup.has_value());
    ASSERT_TRUE(second_dup.has_value());
    expect_same_observable(*first_dup, make_result(90));
    expect_same_observable(*second_dup, make_result(90));
    EXPECT_EQ(cache.hits(), 2u);
    auto later = lookup(sim, cache, 9);  // and it is retained
    ASSERT_TRUE(later.has_value());
    expect_same_observable(*later, make_result(90));
}

TEST(ResultCache, FirstCompletionWins)
{
    sim::Simulation sim;
    ResultCache cache(sim, 16);
    EXPECT_FALSE(lookup(sim, cache, 5).has_value());
    cache.complete(5, make_result(50));
    cache.complete(5, make_result(51, Code::kAlreadyExists));
    auto hit = lookup(sim, cache, 5);
    ASSERT_TRUE(hit.has_value());
    expect_same_observable(*hit, make_result(50));
}

TEST(ResultCache, EvictsOldestFirstAtCapacity)
{
    sim::Simulation sim;
    const size_t capacity = 4;
    ResultCache cache(sim, capacity);
    for (uint64_t id = 1; id <= 6; ++id) {
        EXPECT_FALSE(lookup(sim, cache, id).has_value());
        cache.complete(id, make_result(static_cast<int64_t>(10 * id)));
    }
    // 1 and 2 were evicted, in insertion order; 3..6 are retained.
    for (uint64_t id = 3; id <= 6; ++id) {
        auto hit = lookup(sim, cache, id);
        ASSERT_TRUE(hit.has_value()) << id;
        EXPECT_EQ(hit->inode.id, static_cast<ns::INodeId>(10 * id));
    }
    EXPECT_FALSE(lookup(sim, cache, 1).has_value());  // executes again
    cache.complete(1, make_result(11));
    EXPECT_FALSE(lookup(sim, cache, 3).has_value());  // 3 made room
    EXPECT_TRUE(lookup(sim, cache, 4).has_value());
    EXPECT_EQ(lookup(sim, cache, 1)->inode.id, static_cast<ns::INodeId>(11));
}

TEST(ResultCache, EvictionKeepsManyIdsFindableThroughTableGrowth)
{
    sim::Simulation sim;
    const size_t capacity = 300;
    ResultCache cache(sim, capacity);
    // Interleave in-flight and done ids from many clients, the way
    // LfsClient stamps them ((client + 1) << 40 | seq).
    std::vector<uint64_t> ids;
    for (uint64_t seq = 1; seq <= 40; ++seq) {
        for (uint64_t client = 0; client < 25; ++client) {
            ids.push_back(((client + 1) << 40) | seq);
        }
    }
    for (size_t i = 0; i < ids.size(); ++i) {
        EXPECT_FALSE(lookup(sim, cache, ids[i]).has_value());
        if (i >= 50) {
            cache.complete(ids[i - 50], make_result(static_cast<int64_t>(i)));
        }
    }
    // The last 50 are still in flight: completing them releases no one
    // and each lands in the ring.
    for (size_t i = ids.size() - 50; i < ids.size(); ++i) {
        cache.complete(ids[i], make_result(static_cast<int64_t>(i + 50)));
    }
    // Completion order was ids[0..], so the last `capacity` survive.
    const size_t first_kept = ids.size() - capacity;
    for (size_t i = first_kept; i < ids.size(); ++i) {
        auto hit = lookup(sim, cache, ids[i]);
        ASSERT_TRUE(hit.has_value()) << i;
        EXPECT_EQ(hit->inode.id, static_cast<ns::INodeId>(i + 50));
    }
    for (size_t i = 0; i < first_kept; ++i) {
        EXPECT_FALSE(lookup(sim, cache, ids[i]).has_value()) << i;
    }
}

TEST(ResultCache, ZeroCapacityDisablesCaching)
{
    sim::Simulation sim;
    ResultCache cache(sim, 0);
    EXPECT_FALSE(lookup(sim, cache, 3).has_value());
    cache.complete(3, make_result(30));
    EXPECT_FALSE(lookup(sim, cache, 3).has_value());
    // Duplicates of an in-flight id execute too instead of joining.
    std::optional<OpResult> dup;
    sim::spawn(co_lookup(cache, 3, dup));
    sim.run();
    EXPECT_FALSE(dup.has_value());
    EXPECT_EQ(cache.hits(), 0u);
}

sim::Task<void>
co_rounds(ResultCache& cache, uint64_t first_id, int rounds,
          const OpResult& result, int& misses)
{
    for (int i = 0; i < rounds; ++i) {
        uint64_t id = first_id + static_cast<uint64_t>(i);
        std::optional<OpResult> retained = co_await cache.lookup_or_begin(id);
        if (!retained.has_value()) {
            ++misses;
            cache.complete(id, result);
        }
    }
}

TEST(ResultCache, WarmLookupCompleteRoundMakesNoHeapCalls)
{
    sim::Simulation sim;
    const size_t capacity = 256;
    ResultCache cache(sim, capacity);
    const OpResult result = make_result(1234);
    int misses = 0;
    // Warm up: fill the ring and grow the index to its working size, and
    // park one coroutine frame of each size in the frame pool.
    sim::spawn(co_rounds(cache, 1, 4 * static_cast<int>(capacity), result,
                         misses));
    sim.run();
    ASSERT_EQ(misses, 4 * static_cast<int>(capacity));

    misses = 0;
    const uint64_t before = g_heap_calls;
    sim::spawn(co_rounds(cache, 100000, 2 * static_cast<int>(capacity),
                         result, misses));
    sim.run();
    const uint64_t heap_calls = g_heap_calls - before;
    EXPECT_EQ(misses, 2 * static_cast<int>(capacity));
    EXPECT_EQ(heap_calls, 0u)
        << "a warm lookup_or_begin + complete round touched the heap";
}

}  // namespace
}  // namespace lfs::core
