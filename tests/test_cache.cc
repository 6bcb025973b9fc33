/**
 * @file
 * Unit and property tests for the trie-based metadata cache: hits/misses,
 * chain insertion, LRU eviction under a byte budget, and point/prefix
 * invalidation (the operations the λFS coherence protocol depends on).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/cache/metadata_cache.h"
#include "src/sim/random.h"
#include "src/util/path.h"

namespace lfs::cache {
namespace {

ns::INode
make_inode(ns::INodeId id, const std::string& name,
           ns::INodeType type = ns::INodeType::kFile)
{
    ns::INode inode;
    inode.id = id;
    inode.name = name;
    inode.type = type;
    return inode;
}

TEST(MetadataCache, MissOnEmpty)
{
    MetadataCache cache;
    EXPECT_FALSE(cache.get("/a").has_value());
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(MetadataCache, HitAfterPut)
{
    MetadataCache cache;
    cache.put("/a/f", make_inode(7, "f"));
    auto got = cache.get("/a/f");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->id, 7);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.entries(), 1u);
}

TEST(MetadataCache, PutReplacesExisting)
{
    MetadataCache cache;
    cache.put("/f", make_inode(1, "f"));
    ns::INode v2 = make_inode(1, "f");
    v2.version = 5;
    cache.put("/f", v2);
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.get("/f")->version, 5u);
}

TEST(MetadataCache, PutChainCachesEveryPrefix)
{
    MetadataCache cache;
    std::vector<ns::INode> chain{
        make_inode(ns::kRootId, "", ns::INodeType::kDirectory),
        make_inode(2, "a", ns::INodeType::kDirectory),
        make_inode(3, "b", ns::INodeType::kDirectory),
        make_inode(4, "f"),
    };
    cache.put_chain(chain);
    EXPECT_EQ(cache.entries(), 4u);
    EXPECT_TRUE(cache.contains("/"));
    EXPECT_TRUE(cache.contains("/a"));
    EXPECT_TRUE(cache.contains("/a/b"));
    EXPECT_TRUE(cache.contains("/a/b/f"));
}

TEST(MetadataCache, PointInvalidation)
{
    MetadataCache cache;
    cache.put("/a/f", make_inode(1, "f"));
    cache.put("/a/g", make_inode(2, "g"));
    cache.invalidate("/a/f");
    EXPECT_FALSE(cache.contains("/a/f"));
    EXPECT_TRUE(cache.contains("/a/g"));
    EXPECT_EQ(cache.invalidations(), 1u);
}

TEST(MetadataCache, PrefixInvalidationDropsExactlyTheSubtree)
{
    MetadataCache cache;
    cache.put("/a", make_inode(1, "a", ns::INodeType::kDirectory));
    cache.put("/a/x", make_inode(2, "x"));
    cache.put("/a/y/z", make_inode(3, "z"));
    cache.put("/ab", make_inode(4, "ab"));  // sibling with shared prefix chars
    cache.put("/b/q", make_inode(5, "q"));

    int64_t dropped = cache.invalidate_prefix("/a");
    EXPECT_EQ(dropped, 3);
    EXPECT_FALSE(cache.contains("/a"));
    EXPECT_FALSE(cache.contains("/a/x"));
    EXPECT_FALSE(cache.contains("/a/y/z"));
    EXPECT_TRUE(cache.contains("/ab"));
    EXPECT_TRUE(cache.contains("/b/q"));
}

TEST(MetadataCache, PrefixInvalidationOfRootClears)
{
    MetadataCache cache;
    cache.put("/x", make_inode(1, "x"));
    cache.put("/y", make_inode(2, "y"));
    EXPECT_EQ(cache.invalidate_prefix("/"), 2);
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.bytes(), 0u);
}

TEST(MetadataCache, InvalidateMissingPathIsNoop)
{
    MetadataCache cache;
    cache.invalidate("/nothing");
    EXPECT_EQ(cache.invalidate_prefix("/nothing"), 0);
    EXPECT_EQ(cache.invalidations(), 0u);
}

TEST(MetadataCache, EvictsLruUnderBudget)
{
    CacheConfig config;
    config.capacity_bytes = 400;  // fits ~4 inodes of ~97 bytes
    MetadataCache cache(config);
    for (int i = 0; i < 8; ++i) {
        cache.put("/f" + std::to_string(i), make_inode(i + 1, "x"));
    }
    EXPECT_LE(cache.bytes(), 400u);
    EXPECT_GT(cache.evictions(), 0u);
    // Most recently inserted survive.
    EXPECT_TRUE(cache.contains("/f7"));
    EXPECT_FALSE(cache.contains("/f0"));
}

TEST(MetadataCache, GetRefreshesLruPosition)
{
    CacheConfig config;
    config.capacity_bytes = 300;  // fits ~3 entries
    MetadataCache cache(config);
    cache.put("/a", make_inode(1, "a"));
    cache.put("/b", make_inode(2, "b"));
    cache.put("/c", make_inode(3, "c"));
    ASSERT_TRUE(cache.get("/a").has_value());  // refresh /a
    cache.put("/d", make_inode(4, "d"));       // evicts /b, not /a
    EXPECT_TRUE(cache.contains("/a"));
    EXPECT_FALSE(cache.contains("/b"));
}

TEST(MetadataCache, ZeroCapacityDisablesCaching)
{
    CacheConfig config;
    config.capacity_bytes = 0;
    MetadataCache cache(config);
    cache.put("/f", make_inode(1, "f"));
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_FALSE(cache.get("/f").has_value());
}

TEST(MetadataCache, InternerStaysBoundedUnderChurn)
{
    // 1,000 entries stay live while 100,000 distinct paths are put and
    // invalidated: the interner is rebuilt from the live nodes whenever
    // dead names outnumber live ones, so it tracks the trie, not the
    // history (without the rebuild it ends near 101,000 names).
    MetadataCache cache;
    for (int i = 0; i < 1000; ++i) {
        cache.put("/live/d" + std::to_string(i % 10) + "/k" +
                      std::to_string(i),
                  make_inode(static_cast<ns::INodeId>(i + 2),
                             "k" + std::to_string(i)));
    }
    size_t peak = 0;
    for (int i = 0; i < 100000; ++i) {
        const std::string p = "/churn/f" + std::to_string(i);
        cache.put(p, make_inode(static_cast<ns::INodeId>(i + 5000),
                                path::basename(p)));
        cache.invalidate(p);
        peak = std::max(peak, cache.interned_names());
    }
    EXPECT_EQ(cache.entries(), 1000u);
    EXPECT_EQ(cache.nodes(), 1011u);  // live, its 10 dirs and 1,000 keys
    EXPECT_LE(peak, 2 * cache.nodes() + 128);
    EXPECT_LE(cache.interned_names(), 2 * cache.nodes() + 128);
    // Every surviving node's name was repointed into the rebuilt table.
    for (int i = 0; i < 1000; i += 37) {
        auto got = cache.get("/live/d" + std::to_string(i % 10) + "/k" +
                             std::to_string(i));
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->name, "k" + std::to_string(i));
    }
    cache.invalidate_prefix("/live");
    EXPECT_EQ(cache.nodes(), 0u);
}

TEST(MetadataCache, HitRate)
{
    MetadataCache cache;
    cache.put("/f", make_inode(1, "f"));
    cache.get("/f");
    cache.get("/f");
    cache.get("/missing");
    EXPECT_NEAR(cache.hit_rate(), 2.0 / 3.0, 1e-9);
}

/**
 * Property sweep: under random workloads the cache must never exceed its
 * byte budget, and entry count must match byte accounting.
 */
class CachePropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CachePropertyTest, NeverExceedsBudgetAndStaysConsistent)
{
    CacheConfig config;
    config.capacity_bytes = GetParam();
    MetadataCache cache(config);
    sim::Rng rng(GetParam() * 31 + 7);

    for (int step = 0; step < 4000; ++step) {
        int dir = static_cast<int>(rng.uniform_int(0, 19));
        int file = static_cast<int>(rng.uniform_int(0, 49));
        std::string p = "/d" + std::to_string(dir) + "/f" + std::to_string(file);
        double action = rng.uniform();
        if (action < 0.55) {
            cache.put(p, make_inode(dir * 100 + file + 1, "f"));
        } else if (action < 0.85) {
            cache.get(p);
        } else if (action < 0.95) {
            cache.invalidate(p);
        } else {
            cache.invalidate_prefix("/d" + std::to_string(dir));
        }
        ASSERT_LE(cache.bytes(), config.capacity_bytes);
    }
}

INSTANTIATE_TEST_SUITE_P(Budgets, CachePropertyTest,
                         ::testing::Values(200, 500, 1000, 5000, 50000));

}  // namespace
}  // namespace lfs::cache
