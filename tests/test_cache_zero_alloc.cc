/**
 * @file
 * Proves the MetadataCache hot path is allocation-free in steady state
 * (DESIGN.md §14): once a working set is installed, get()/contains() on
 * hits, misses, and deep paths must perform zero heap allocations, and
 * so must invalidate()/invalidate_prefix() while store reads are in
 * flight (the read-guard log).
 *
 * The proof instruments the global allocator — this test lives in its
 * own binary (the test CMake glob builds one executable per test_*.cc)
 * so the override cannot leak into other suites.
 *
 * Note the returned std::optional<ns::INode> copies the inode by value;
 * the probe working set uses short component names so both strings stay
 * within the small-string buffer. That is the realistic regime: path
 * components in the bench namespaces are <= 15 characters.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/cache/metadata_cache.h"

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

ns::INode
make_inode(uint64_t id, std::string name)
{
    ns::INode inode;
    inode.id = static_cast<ns::INodeId>(id + 2);
    inode.name = std::move(name);
    inode.type = ns::INodeType::kFile;
    return inode;
}

TEST(CacheZeroAlloc, SteadyStateGetAllocatesNothing)
{
    cache::MetadataCache cache;
    std::vector<std::string> hits;
    std::vector<std::string> misses;
    for (int i = 0; i < 256; ++i) {
        std::string dir = "/d" + std::to_string(i % 16);
        std::string path = dir + "/f" + std::to_string(i);
        cache.put(path, make_inode(static_cast<uint64_t>(i),
                                   "f" + std::to_string(i)));
        hits.push_back(path);
        // Probed but never installed: unknown leaf under a cached dir,
        // and a path whose first component was never interned.
        misses.push_back(dir + "/absent" + std::to_string(i));
        misses.push_back("/nowhere/f" + std::to_string(i));
    }
    // Deep chain: 12 components, all hits along the walk's target.
    std::string deep;
    for (int d = 0; d < 11; ++d) {
        deep += "/lvl" + std::to_string(d);
    }
    deep += "/leaf";
    cache.put(deep, make_inode(999, "leaf"));
    hits.push_back(deep);

    // Warm every probe once (counters, LRU churn) before measuring.
    for (const std::string& p : hits) {
        ASSERT_TRUE(cache.get(p).has_value());
    }
    for (const std::string& p : misses) {
        ASSERT_FALSE(cache.get(p).has_value());
    }

    uint64_t before = g_allocations;
    for (int round = 0; round < 8; ++round) {
        for (const std::string& p : hits) {
            auto hit = cache.get(p);
            if (!hit.has_value()) {
                FAIL() << "lost entry " << p;
            }
        }
        for (const std::string& p : misses) {
            if (cache.get(p).has_value()) {
                FAIL() << "phantom entry " << p;
            }
            if (cache.contains(p)) {
                FAIL() << "phantom containment " << p;
            }
        }
    }
    uint64_t allocated = g_allocations - before;
    EXPECT_EQ(allocated, 0u)
        << "steady-state get/contains performed " << allocated
        << " heap allocations";
}

TEST(CacheZeroAlloc, InvalidateOfAbsentPathAllocatesNothing)
{
    // The no-reader invalidation fast path (every coherence round hits
    // it): bump the sequence, find nothing, drop nothing.
    cache::MetadataCache cache;
    cache.put("/d0/f0", make_inode(1, "f0"));
    cache.invalidate("/d0/absent");  // warm any lazy interning
    uint64_t before = g_allocations;
    for (int i = 0; i < 64; ++i) {
        cache.invalidate("/d0/absent");
        cache.invalidate("/never/seen");
    }
    EXPECT_EQ(g_allocations - before, 0u);
    EXPECT_TRUE(cache.contains("/d0/f0"));
}

/**
 * One round of the write path's cache traffic while store reads are in
 * flight: point and prefix invalidations of cached and never-cached
 * paths are logged for the readers, late installs race them, and the
 * readers retire out of order, so the log is pruned with readers still
 * active before it is cleared.
 */
void
invalidation_round(cache::MetadataCache& cache,
                   const std::vector<std::string>& cached,
                   const std::vector<std::string>& absent)
{
    const auto t1 = cache.begin_read();
    const auto t2 = cache.begin_read();  // equal token
    for (size_t i = 0; i < cached.size(); ++i) {
        cache.invalidate(cached[i]);
        cache.invalidate(absent[i]);
    }
    const auto t3 = cache.begin_read();
    cache.invalidate_prefix("/d1");
    cache.invalidate_prefix("/nowhere");
    for (const std::string& p : absent) {
        cache.put_guarded(p, make_inode(7, "late"), t1);  // rejected
    }
    cache.end_read(t1);
    for (const std::string& p : absent) {
        cache.invalidate(p);
    }
    cache.end_read(t3);  // out of order: t2 is still the oldest
    cache.invalidate("/d0/f0");
    cache.end_read(t2);
}

TEST(CacheZeroAlloc, InvalidateWithReadInFlightAllocatesNothing)
{
    // The guard log keeps each invalidated path's component hashes in
    // one reused arena and fixed-size entries: once the log has grown to
    // its peak, logging allocates nothing.
    cache::MetadataCache cache;
    std::vector<std::string> cached;
    std::vector<std::string> absent;
    for (int i = 0; i < 64; ++i) {
        std::string dir = "/d" + std::to_string(i % 4);
        cached.push_back(dir + "/f" + std::to_string(i));
        absent.push_back(dir + "/gone" + std::to_string(i));
    }
    auto install = [&] {
        for (size_t i = 0; i < cached.size(); ++i) {
            cache.put(cached[i], make_inode(i, "f" + std::to_string(i)));
        }
    };
    install();
    invalidation_round(cache, cached, absent);  // warm-up
    invalidation_round(cache, cached, absent);  // warm-up: peak log
    const uint64_t rejected = cache.guard_rejections();

    uint64_t before = g_allocations;
    for (int round = 0; round < 8; ++round) {
        invalidation_round(cache, cached, absent);
    }
    uint64_t allocated = g_allocations - before;
    EXPECT_EQ(allocated, 0u)
        << "invalidate/invalidate_prefix with reads in flight performed "
        << allocated << " heap allocations";
    EXPECT_EQ(cache.guard_rejections() - rejected, 8 * absent.size());

    // Invalidations that actually drop entries free nodes but allocate
    // none: re-install (allocating, untimed), then measure the drops.
    install();
    before = g_allocations;
    invalidation_round(cache, cached, absent);
    EXPECT_EQ(g_allocations - before, 0u);
    for (const std::string& p : cached) {
        EXPECT_FALSE(cache.contains(p)) << p;
    }
}

}  // namespace
}  // namespace lfs
