/**
 * @file
 * Unit and property tests for hashing, the consistent-hash ring, path
 * utilities, and Status/StatusOr.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/util/hash.h"
#include "src/util/path.h"
#include "src/util/status.h"

namespace lfs {
namespace {

// ---------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------

TEST(Hash, Fnv1aIsDeterministic)
{
    EXPECT_EQ(fnv1a("/dir/file"), fnv1a("/dir/file"));
    EXPECT_NE(fnv1a("/dir/file"), fnv1a("/dir/file2"));
    EXPECT_NE(fnv1a(""), fnv1a("a"));
}

TEST(Hash, Mix64Avalanches)
{
    // Flipping one input bit should change roughly half the output bits.
    uint64_t a = mix64(0x1234);
    uint64_t b = mix64(0x1235);
    int differing = __builtin_popcountll(a ^ b);
    EXPECT_GT(differing, 16);
    EXPECT_LT(differing, 48);
}

TEST(ConsistentHashRing, MapsKeysOnlyToMembers)
{
    ConsistentHashRing ring;
    ring.add_member(3);
    ring.add_member(7);
    for (int i = 0; i < 200; ++i) {
        int m = ring.lookup("key" + std::to_string(i));
        EXPECT_TRUE(m == 3 || m == 7);
    }
}

TEST(ConsistentHashRing, AddIsIdempotent)
{
    ConsistentHashRing ring;
    ring.add_member(1);
    ring.add_member(1);
    EXPECT_EQ(ring.size(), 1u);
}

TEST(ConsistentHashRing, RemoveRestoresPriorMapping)
{
    ConsistentHashRing ring;
    ring.add_member(0);
    ring.add_member(1);
    std::map<std::string, int> before;
    for (int i = 0; i < 100; ++i) {
        std::string key = "k" + std::to_string(i);
        before[key] = ring.lookup(key);
    }
    ring.add_member(2);
    ring.remove_member(2);
    for (const auto& [key, member] : before) {
        EXPECT_EQ(ring.lookup(key), member) << key;
    }
}

TEST(ConsistentHashRing, AdditionMovesOnlyAFractionOfKeys)
{
    ConsistentHashRing ring(128);
    for (int m = 0; m < 8; ++m) {
        ring.add_member(m);
    }
    std::map<std::string, int> before;
    for (int i = 0; i < 2000; ++i) {
        std::string key = "k" + std::to_string(i);
        before[key] = ring.lookup(key);
    }
    ring.add_member(8);
    int moved = 0;
    for (const auto& [key, member] : before) {
        if (ring.lookup(key) != member) {
            ++moved;
        }
    }
    // Expect ~1/9 of keys to move; allow generous slack.
    EXPECT_GT(moved, 2000 / 30);
    EXPECT_LT(moved, 2000 / 3);
}

TEST(ConsistentHashRing, BalancesLoadAcrossMembers)
{
    ConsistentHashRing ring(128);
    const int members = 10;
    for (int m = 0; m < members; ++m) {
        ring.add_member(m);
    }
    std::map<int, int> load;
    const int keys = 20000;
    for (int i = 0; i < keys; ++i) {
        load[ring.lookup("/dir" + std::to_string(i))]++;
    }
    for (int m = 0; m < members; ++m) {
        double share = static_cast<double>(load[m]) / keys;
        EXPECT_GT(share, 0.04) << "member " << m;
        EXPECT_LT(share, 0.20) << "member " << m;
    }
}

/**
 * The ring as an ordered map of point -> member: the reference semantics
 * (shared points go to the newest member, removal only drops a member's
 * own points, lookup takes the first point >= the hash and wraps).
 */
class MapRingModel {
  public:
    explicit MapRingModel(int vnodes) : vnodes_(vnodes) {}

    static uint64_t
    point(int id, int v)
    {
        return mix64(static_cast<uint64_t>(id) * 0x100000001b3ULL +
                     static_cast<uint64_t>(v));
    }

    void
    add_member(int id)
    {
        auto it = ring_.find(point(id, 0));
        if (it != ring_.end() && it->second == id) {
            return;
        }
        for (int v = 0; v < vnodes_; ++v) {
            ring_[point(id, v)] = id;
        }
        ++members_;
    }

    void
    remove_member(int id)
    {
        size_t removed = 0;
        for (int v = 0; v < vnodes_; ++v) {
            auto it = ring_.find(point(id, v));
            if (it != ring_.end() && it->second == id) {
                ring_.erase(it);
                ++removed;
            }
        }
        if (removed > 0) {
            --members_;
        }
    }

    int
    lookup_hash(uint64_t hash) const
    {
        auto it = ring_.lower_bound(hash);
        return it == ring_.end() ? ring_.begin()->second : it->second;
    }

    size_t size() const { return members_; }
    bool empty() const { return ring_.empty(); }
    const std::map<uint64_t, int>& points() const { return ring_; }

  private:
    int vnodes_;
    size_t members_ = 0;
    std::map<uint64_t, int> ring_;
};

TEST(ConsistentHashRing, MatchesOrderedMapSemanticsUnderChurn)
{
    std::mt19937_64 rng(0x51ab1e);
    for (int vnodes : {1, 8, 64}) {
        ConsistentHashRing ring(vnodes);
        MapRingModel model(vnodes);
        for (int round = 0; round < 400; ++round) {
            int id = static_cast<int>(rng() % 24);
            if (rng() % 3 == 0) {
                ring.remove_member(id);
                model.remove_member(id);
            } else {
                ring.add_member(id);
                model.add_member(id);
            }
            ASSERT_EQ(ring.size(), model.size());
            ASSERT_EQ(ring.empty(), model.empty());
            if (model.empty()) {
                continue;
            }
            // Random hashes, the exact points (first point >= hash is
            // the point itself), their neighbours, and both extremes
            // (past the last point wraps to the first).
            std::vector<uint64_t> probes = {0, ~uint64_t{0}};
            for (int i = 0; i < 32; ++i) {
                probes.push_back(rng());
            }
            for (const auto& [p, owner] : model.points()) {
                if (rng() % 4 == 0) {
                    probes.push_back(p);
                    probes.push_back(p - 1);
                    probes.push_back(p + 1);
                }
            }
            for (uint64_t h : probes) {
                ASSERT_EQ(ring.lookup_hash(h), model.lookup_hash(h))
                    << "vnodes " << vnodes << " round " << round
                    << " hash " << h;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Paths
// ---------------------------------------------------------------------

TEST(Path, Validity)
{
    EXPECT_TRUE(path::is_valid("/"));
    EXPECT_TRUE(path::is_valid("/a/b/c"));
    EXPECT_TRUE(path::is_valid("//a//b/"));  // collapses on normalize
    EXPECT_FALSE(path::is_valid(""));
    EXPECT_FALSE(path::is_valid("a/b"));
    EXPECT_FALSE(path::is_valid("/a/../b"));
    EXPECT_FALSE(path::is_valid("/a/./b"));
}

TEST(Path, Normalize)
{
    EXPECT_EQ(path::normalize("/"), "/");
    EXPECT_EQ(path::normalize("//a//b/"), "/a/b");
    EXPECT_EQ(path::normalize("/a"), "/a");
}

TEST(Path, SplitAndDepth)
{
    EXPECT_TRUE(path::split("/").empty());
    EXPECT_EQ(path::split("/a/b"), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(path::depth("/"), 0);
    EXPECT_EQ(path::depth("/a/b/c"), 3);
}

TEST(Path, ParentAndBasename)
{
    EXPECT_EQ(path::parent("/a/b"), "/a");
    EXPECT_EQ(path::parent("/a"), "/");
    EXPECT_EQ(path::parent("/"), "/");
    EXPECT_EQ(path::basename("/a/b"), "b");
    EXPECT_EQ(path::basename("/"), "");
}

TEST(Path, Join)
{
    EXPECT_EQ(path::join("/", "a"), "/a");
    EXPECT_EQ(path::join("/a", "b"), "/a/b");
    EXPECT_EQ(path::join("/a/", "b"), "/a/b");
}

TEST(Path, IsUnder)
{
    EXPECT_TRUE(path::is_under("/a/b/c", "/a/b"));
    EXPECT_TRUE(path::is_under("/a/b", "/a/b"));
    EXPECT_TRUE(path::is_under("/anything", "/"));
    EXPECT_FALSE(path::is_under("/ab", "/a"));
    EXPECT_FALSE(path::is_under("/a", "/a/b"));
}

TEST(Path, Ancestors)
{
    EXPECT_EQ(path::ancestors("/a/b/c"),
              (std::vector<std::string>{"/", "/a", "/a/b"}));
    EXPECT_EQ(path::ancestors("/a"), (std::vector<std::string>{"/"}));
}

// ---------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------

TEST(Status, OkByDefault)
{
    Status s;
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, CarriesCodeAndMessage)
{
    Status s = Status::not_found("missing /x");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), Code::kNotFound);
    EXPECT_EQ(s.to_string(), "NOT_FOUND: missing /x");
}

TEST(StatusOr, HoldsValue)
{
    StatusOr<int> v = 42;
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(*v, 42);
}

TEST(StatusOr, HoldsError)
{
    StatusOr<int> v = Status::unavailable("down");
    EXPECT_FALSE(v.ok());
    EXPECT_EQ(v.code(), Code::kUnavailable);
}

}  // namespace
}  // namespace lfs
