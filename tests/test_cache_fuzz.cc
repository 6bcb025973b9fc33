/**
 * @file
 * Randomized equivalence testing of MetadataCache against a trivially
 * correct reference model (std::map<std::string, INode>), plus targeted
 * regressions for the interned-trie rewrite (DESIGN.md §14): guarded
 * installs racing invalidations must still lose after the switch from
 * string-prefix matching to component-hash matching.
 *
 * Two regimes:
 *   - unlimited budget: the cache must agree with the model exactly on
 *     every get/contains after any interleaving of put / put_chain /
 *     invalidate / invalidate_prefix;
 *   - small budget: eviction makes the cache a subset — every hit must
 *     match the model's value, and entries() must track the model's
 *     upper bound (soundness, not completeness).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/cache/metadata_cache.h"
#include "src/util/hash.h"
#include "src/util/path.h"

namespace lfs {
namespace {

/** Deterministic xorshift — the test must not depend on libc rand. */
class Rng {
  public:
    explicit Rng(uint64_t seed) : state_(seed ? seed : 0x9e3779b97f4a7c15ull)
    {
    }

    uint64_t
    next()
    {
        state_ ^= state_ << 13;
        state_ ^= state_ >> 7;
        state_ ^= state_ << 17;
        return state_;
    }

    uint64_t next(uint64_t bound) { return next() % bound; }

  private:
    uint64_t state_;
};

ns::INode
make_inode(uint64_t id, std::string name)
{
    ns::INode inode;
    inode.id = static_cast<ns::INodeId>(id + 2);  // skip root id
    inode.name = std::move(name);
    inode.type = ns::INodeType::kFile;
    inode.size = id * 17;
    return inode;
}

/**
 * A small closed path universe: depth <= 3 over a few component names,
 * so collisions between put / invalidate / prefix ops are frequent.
 */
std::vector<std::string>
path_universe()
{
    const std::vector<std::string> dirs = {"a", "b", "cc", "dd"};
    const std::vector<std::string> leaves = {"x", "y", "zz"};
    std::vector<std::string> paths;
    for (const std::string& d : dirs) {
        paths.push_back("/" + d);
        for (const std::string& m : dirs) {
            paths.push_back("/" + d + "/" + m);
            for (const std::string& l : leaves) {
                paths.push_back("/" + d + "/" + m + "/" + l);
            }
        }
    }
    return paths;
}

bool
is_under(const std::string& p, const std::string& prefix)
{
    if (prefix == "/") {
        return true;
    }
    if (p == prefix) {
        return true;
    }
    return p.size() > prefix.size() && p.compare(0, prefix.size(), prefix) == 0 &&
           p[prefix.size()] == '/';
}

/** Root-first inode chain for @p path ("/a/b" -> [a, b], named). */
std::vector<ns::INode>
chain_for(const std::string& path, uint64_t version)
{
    std::vector<ns::INode> chain;
    size_t begin = 1;
    std::string assembled;
    while (begin <= path.size()) {
        size_t end = path.find('/', begin);
        if (end == std::string::npos) {
            end = path.size();
        }
        std::string comp = path.substr(begin, end - begin);
        if (!comp.empty()) {
            chain.push_back(make_inode(version + chain.size(), comp));
        }
        begin = end + 1;
    }
    return chain;
}

/** Components of @p path, shallowest first ("/a/b" -> a, b). */
std::vector<std::string>
chain_names(const std::string& path)
{
    std::vector<std::string> out;
    for (const ns::INode& inode : chain_for(path, 0)) {
        out.push_back(inode.name);
    }
    return out;
}

/** Prefixes of @p path, shallowest first ("/a/b/x" -> /a, /a/b, /a/b/x). */
std::vector<std::string>
prefixes_of(const std::string& path)
{
    std::vector<std::string> out;
    size_t pos = 1;
    while (pos <= path.size()) {
        size_t end = path.find('/', pos);
        if (end == std::string::npos) {
            end = path.size();
        }
        out.push_back(path.substr(0, end));
        pos = end + 1;
    }
    return out;
}

TEST(CacheFuzz, MatchesReferenceModelUnlimitedBudget)
{
    const std::vector<std::string> paths = path_universe();
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed * 0x1234567ull);
        cache::MetadataCache cache;  // default budget: effectively unlimited
        std::map<std::string, ns::INode> model;
        uint64_t version = 0;

        for (int step = 0; step < 4000; ++step) {
            const std::string& p = paths[rng.next(paths.size())];
            switch (rng.next(6)) {
            case 0:
            case 1: {  // put
                ns::INode inode = make_inode(++version, p.substr(p.rfind('/') + 1));
                cache.put(p, inode);
                model[p] = inode;
                break;
            }
            case 2: {  // put_chain: installs every prefix of p
                std::vector<ns::INode> chain = chain_for(p, ++version);
                cache.put_chain(chain);
                std::vector<std::string> prefixes = prefixes_of(p);
                ASSERT_EQ(prefixes.size(), chain.size());
                for (size_t i = 0; i < prefixes.size(); ++i) {
                    model[prefixes[i]] = chain[i];
                }
                version += chain.size();
                break;
            }
            case 3: {  // point invalidate
                cache.invalidate(p);
                model.erase(p);
                break;
            }
            case 4: {  // prefix invalidate
                cache.invalidate_prefix(p);
                for (auto it = model.begin(); it != model.end();) {
                    if (is_under(it->first, p)) {
                        it = model.erase(it);
                    } else {
                        ++it;
                    }
                }
                break;
            }
            default: {  // probe
                auto hit = cache.get(p);
                auto it = model.find(p);
                ASSERT_EQ(hit.has_value(), it != model.end())
                    << "seed=" << seed << " step=" << step << " path=" << p;
                if (hit.has_value()) {
                    EXPECT_EQ(hit->id, it->second.id);
                    EXPECT_EQ(hit->name, it->second.name);
                    EXPECT_EQ(hit->size, it->second.size);
                }
                EXPECT_EQ(cache.contains(p), it != model.end());
                break;
            }
            }
        }

        // Full sweep: cache and model agree on the entire universe.
        size_t live = 0;
        for (const std::string& p : paths) {
            auto it = model.find(p);
            ASSERT_EQ(cache.contains(p), it != model.end())
                << "seed=" << seed << " path=" << p;
            if (it != model.end()) {
                ++live;
                auto hit = cache.get(p);
                ASSERT_TRUE(hit.has_value());
                EXPECT_EQ(hit->id, it->second.id);
            }
        }
        EXPECT_EQ(cache.entries(), live);
    }
}

TEST(CacheFuzz, BudgetedCacheIsSoundSubsetOfModel)
{
    const std::vector<std::string> paths = path_universe();
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed * 0xdeadbeefull);
        cache::CacheConfig config;
        config.capacity_bytes = 2048;  // a handful of entries -> eviction
        cache::MetadataCache cache(config);
        std::map<std::string, ns::INode> model;
        uint64_t version = 0;

        for (int step = 0; step < 4000; ++step) {
            const std::string& p = paths[rng.next(paths.size())];
            switch (rng.next(5)) {
            case 0:
            case 1: {
                ns::INode inode = make_inode(++version, p.substr(p.rfind('/') + 1));
                cache.put(p, inode);
                model[p] = inode;
                break;
            }
            case 2: {
                cache.invalidate(p);
                model.erase(p);
                break;
            }
            case 3: {
                cache.invalidate_prefix(p);
                for (auto it = model.begin(); it != model.end();) {
                    if (is_under(it->first, p)) {
                        it = model.erase(it);
                    } else {
                        ++it;
                    }
                }
                break;
            }
            default: {
                // Every hit must be the model's value; misses are allowed
                // (eviction), absent-in-model must never hit.
                auto hit = cache.get(p);
                auto it = model.find(p);
                if (it == model.end()) {
                    EXPECT_FALSE(hit.has_value())
                        << "seed=" << seed << " step=" << step
                        << " stale hit at " << p;
                } else if (hit.has_value()) {
                    EXPECT_EQ(hit->id, it->second.id);
                    EXPECT_EQ(hit->size, it->second.size);
                }
                break;
            }
            }
            ASSERT_LE(cache.bytes(), config.capacity_bytes);
            ASSERT_LE(cache.entries(), model.size());
        }
    }
}

// ----------------------------------------------------------------------
// Read-guard regressions after the interned-key rewrite
// ----------------------------------------------------------------------

TEST(CacheGuardRegression, PointInvalidationStillBeatsLateInstall)
{
    cache::MetadataCache cache;
    auto token = cache.begin_read();
    // The racing invalidation names a path the cache has NEVER seen —
    // its components must still be logged and matched.
    cache.invalidate("/never/cached/file");
    cache.put_guarded("/never/cached/file", make_inode(1, "file"), token);
    cache.end_read(token);
    EXPECT_FALSE(cache.contains("/never/cached/file"));
    EXPECT_EQ(cache.guard_rejections(), 1u);
}

TEST(CacheGuardRegression, PrefixInvalidationStillBeatsLateInstall)
{
    cache::MetadataCache cache;
    auto token = cache.begin_read();
    cache.invalidate_prefix("/warm/dir");
    // Install strictly below the invalidated prefix: must be rejected.
    cache.put_guarded("/warm/dir/sub/f", make_inode(2, "f"), token);
    // Sibling outside the prefix: must be installed.
    cache.put_guarded("/warm/other", make_inode(3, "other"), token);
    cache.end_read(token);
    EXPECT_FALSE(cache.contains("/warm/dir/sub/f"));
    EXPECT_TRUE(cache.contains("/warm/other"));
    EXPECT_EQ(cache.guard_rejections(), 1u);
}

TEST(CacheGuardRegression, SharedSpellingDoesNotFalseMatch)
{
    // Component hashes are shared across directories; matching must
    // compare the full component sequence, not mere hash membership.
    cache::MetadataCache cache;
    cache.put("/x/data", make_inode(1, "data"));
    auto token = cache.begin_read();
    cache.invalidate("/y/data");  // same leaf spelling, different parent
    cache.put_guarded("/x/other", make_inode(2, "other"), token);
    cache.end_read(token);
    EXPECT_TRUE(cache.contains("/x/data"));
    EXPECT_TRUE(cache.contains("/x/other"));
    EXPECT_EQ(cache.guard_rejections(), 0u);
}

TEST(CacheGuardRegression, LoggedInvalidationsInternNothing)
{
    // The log keeps component hashes, so invalidating never-cached
    // names under a read in flight leaves the cache's interner alone.
    cache::MetadataCache cache;
    cache.put("/warm/f", make_inode(1, "f"));
    const size_t interned = cache.interned_names();
    auto token = cache.begin_read();
    for (int i = 0; i < 1000; ++i) {
        cache.invalidate("/churn/d" + std::to_string(i % 10) + "/f" +
                         std::to_string(i));
    }
    cache.invalidate_prefix("/churn/gone");
    EXPECT_EQ(cache.interned_names(), interned);
    cache.put_guarded("/churn/d3/f3", make_inode(2, "f3"), token);
    cache.put_guarded("/churn/gone/x", make_inode(3, "x"), token);
    cache.end_read(token);
    EXPECT_EQ(cache.guard_rejections(), 2u);
}

// ----------------------------------------------------------------------
// Read guard against a plain reference model
// ----------------------------------------------------------------------

/**
 * The read guard spelled out with strings: a multiset of active tokens
 * and a log of (seq, path, prefix) entries, pruned exactly as documented
 * on MetadataCache. Paths are kept normalized, so matching is plain
 * string comparison.
 */
class GuardModel {
  public:
    uint64_t
    begin_read()
    {
        active_.insert(seq_);
        return seq_;
    }

    void
    end_read(uint64_t token)
    {
        auto it = active_.find(token);
        ASSERT_NE(it, active_.end());
        active_.erase(it);
        if (active_.empty()) {
            log_.clear();
            return;
        }
        const uint64_t oldest = *active_.begin();
        while (!log_.empty() && log_.front().seq <= oldest) {
            log_.pop_front();
        }
    }

    void
    invalidate(const std::string& p, bool prefix)
    {
        ++seq_;
        if (!active_.empty()) {
            log_.push_back(Entry{seq_, p, prefix});
        }
    }

    /** True when an install of @p p under @p token must be rejected. */
    bool
    rejects(const std::string& p, uint64_t token) const
    {
        for (const Entry& e : log_) {
            if (e.seq <= token) {
                continue;
            }
            if (p == e.path) {
                return true;
            }
            if (e.prefix &&
                (e.path == "/" || p.rfind(e.path + "/", 0) == 0)) {
                return true;
            }
        }
        return false;
    }

  private:
    struct Entry {
        uint64_t seq;
        std::string path;
        bool prefix;
    };
    uint64_t seq_ = 0;
    std::multiset<uint64_t> active_;
    std::deque<Entry> log_;
};

TEST(CacheGuardReference, DecisionsMatchPlainModel)
{
    // Invalidated paths draw from a small tree of spellings shared
    // across directories; installs also use spellings that are never
    // invalidated (never logged) and deeper paths.
    const std::vector<std::string> comps = {"a", "b", "c", "data"};
    const std::vector<std::string> fresh = {"zz", "q1", "q2"};
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed * 7919);
        auto random_path = [&](bool allow_fresh, int max_depth) {
            const int depth = 1 + static_cast<int>(rng.next(
                                      static_cast<uint64_t>(max_depth)));
            std::string p;
            for (int d = 0; d < depth; ++d) {
                const bool use_fresh = allow_fresh && rng.next(5) == 0;
                const auto& pool = use_fresh ? fresh : comps;
                p += "/" + pool[rng.next(pool.size())];
            }
            return p;
        };
        cache::MetadataCache cache;
        GuardModel model;
        std::vector<uint64_t> tokens;  // active, in issue order
        uint64_t decisions = 0;
        uint64_t rejections = 0;
        for (int step = 0; step < 4000; ++step) {
            const uint64_t roll = rng.next(100);
            if (roll < 20) {
                // Several reads often start between two invalidations,
                // so equal tokens are common.
                const uint64_t t = cache.begin_read();
                ASSERT_EQ(t, model.begin_read());
                tokens.push_back(t);
            } else if (roll < 35 && !tokens.empty()) {
                // Retire any active read, not just the oldest.
                const size_t i = rng.next(tokens.size());
                cache.end_read(tokens[i]);
                model.end_read(tokens[i]);
                tokens.erase(tokens.begin() + static_cast<long>(i));
            } else if (roll < 55) {
                const std::string p = random_path(false, 3);
                cache.invalidate(p);
                model.invalidate(p, false);
            } else if (roll < 62) {
                const bool root = rng.next(10) == 0;
                const std::string p = root ? "/" : random_path(false, 2);
                cache.invalidate_prefix(p);
                model.invalidate(p, true);
            } else if (!tokens.empty()) {
                // An install completes a read that is still in flight
                // (put_guarded before end_read), as every caller does.
                const uint64_t token = tokens[rng.next(tokens.size())];
                const std::string p = random_path(true, 4);
                const uint64_t before = cache.guard_rejections();
                cache.put_guarded(p, make_inode(1, "leaf"), token);
                const bool rejected = cache.guard_rejections() != before;
                ASSERT_EQ(rejected, model.rejects(p, token))
                    << "seed " << seed << " step " << step << " path " << p
                    << " token " << token;
                ++decisions;
                rejections += rejected ? 1 : 0;
            }
        }
        // The mix must exercise both outcomes.
        EXPECT_GT(decisions, 500u) << "seed " << seed;
        EXPECT_GT(rejections, 20u) << "seed " << seed;
        EXPECT_LT(rejections, decisions) << "seed " << seed;
    }
}

// ----------------------------------------------------------------------
// One-descent guarded chain install against per-entry put_guarded
// ----------------------------------------------------------------------

/**
 * The per-entry install put_chain_guarded() replaces: rebuild each
 * entry's path, ask the partition predicate about its parent hash, and
 * put_guarded() it from the root.
 */
void
install_per_entry(cache::MetadataCache& cache,
                  const std::vector<ns::INode>& chain,
                  cache::MetadataCache::ReadToken token,
                  const std::function<bool(uint64_t)>& owns)
{
    std::string p = "/";
    for (const ns::INode& inode : chain) {
        if (inode.id != ns::kRootId) {
            p = path::join(p, inode.name);
        }
        if (owns(path::parent_hash(p))) {
            cache.put_guarded(p, inode, token);
        }
    }
}

/** Everything observable about @p a and @p b must agree. */
void
expect_same_cache(cache::MetadataCache& a, cache::MetadataCache& b,
                  const std::vector<std::string>& probes,
                  const std::string& where)
{
    ASSERT_EQ(a.entries(), b.entries()) << where;
    ASSERT_EQ(a.bytes(), b.bytes()) << where;
    ASSERT_EQ(a.nodes(), b.nodes()) << where;
    ASSERT_EQ(a.evictions(), b.evictions()) << where;
    ASSERT_EQ(a.guard_rejections(), b.guard_rejections()) << where;
    ASSERT_EQ(a.lru_ids(), b.lru_ids()) << where;
    for (const std::string& p : probes) {
        ASSERT_EQ(a.contains(p), b.contains(p)) << where << " " << p;
    }
}

TEST(CacheChainInstall, OneDescentMatchesPerEntryPutGuarded)
{
    const std::vector<std::string> comps = {"a", "b", "cc", "data"};
    std::vector<std::string> probes = {"/"};
    for (const std::string& p : path_universe()) {
        probes.push_back(p);
    }
    // One entry costs 96 bytes plus its name (ns::INode::metadata_bytes):
    // 60 is smaller than any entry, 400 holds three or four.
    for (size_t budget : {size_t{0}, size_t{60}, size_t{400}, size_t{4000},
                          size_t{1} << 30}) {
        for (uint64_t seed = 1; seed <= 6; ++seed) {
            Rng rng(seed * 104729 + budget);
            // Each "deployment" owns the parents whose hash lands in its
            // third of the ring, so chains interleave owned and foreign
            // ancestors.
            const uint64_t mine = seed % 3;
            auto owns = [mine](uint64_t parent_hash) {
                return mix64(parent_hash) % 3 != (mine + 1) % 3;
            };
            cache::MetadataCache one(cache::CacheConfig{budget});
            cache::MetadataCache ref(cache::CacheConfig{budget});
            std::vector<uint64_t> tokens;
            uint64_t installs = 0;
            uint64_t id = 100;
            for (int step = 0; step < 1500; ++step) {
                const std::string where = "budget " +
                                          std::to_string(budget) +
                                          " seed " + std::to_string(seed) +
                                          " step " + std::to_string(step);
                const uint64_t roll = rng.next(100);
                const int depth = 1 + static_cast<int>(rng.next(4));
                std::string p;
                for (int d = 0; d < depth; ++d) {
                    p += "/" + comps[rng.next(comps.size())];
                }
                if (roll < 15) {
                    const uint64_t t = one.begin_read();
                    ASSERT_EQ(t, ref.begin_read());
                    tokens.push_back(t);
                } else if (roll < 25 && !tokens.empty()) {
                    const size_t i = rng.next(tokens.size());
                    one.end_read(tokens[i]);
                    ref.end_read(tokens[i]);
                    tokens.erase(tokens.begin() + static_cast<long>(i));
                } else if (roll < 40) {
                    one.invalidate(p);
                    ref.invalidate(p);
                } else if (roll < 45) {
                    const std::string prefix = path::parent(p);
                    one.invalidate_prefix(prefix);
                    ref.invalidate_prefix(prefix);
                } else if (roll < 50) {
                    const ns::INode v = make_inode(id++, path::basename(p));
                    one.put(p, v);
                    ref.put(p, v);
                } else if (roll < 55) {
                    (void)one.get(p);
                    (void)ref.get(p);
                } else {
                    // A resolved chain, root first. Installs happen while
                    // their read is in flight, as every caller does.
                    const uint64_t token = tokens.empty()
                                               ? one.begin_read()
                                               : tokens[rng.next(
                                                     tokens.size())];
                    if (tokens.empty()) {
                        ASSERT_EQ(token, ref.begin_read());
                        tokens.push_back(token);
                    }
                    std::vector<ns::INode> chain;
                    ns::INode root;
                    root.id = ns::kRootId;
                    root.type = ns::INodeType::kDirectory;
                    chain.push_back(root);
                    for (const std::string& name : chain_names(p)) {
                        ns::INode inode = make_inode(id++, name);
                        inode.nlink = rng.next(10) == 0 ? 2 : 1;
                        chain.push_back(std::move(inode));
                    }
                    one.put_chain_guarded(chain, token, owns);
                    install_per_entry(ref, chain, token, owns);
                    ++installs;
                }
                expect_same_cache(one, ref, probes, where);
            }
            for (uint64_t t : tokens) {
                one.end_read(t);
                ref.end_read(t);
            }
            EXPECT_GT(installs, 500u);
            if (budget == (size_t{1} << 30)) {
                EXPECT_GT(one.entries(), 0u) << "seed " << seed;
                EXPECT_GT(one.guard_rejections(), 0u) << "seed " << seed;
            }
            if (budget == 60 || budget == 400) {
                EXPECT_GT(one.evictions(), 0u) << "seed " << seed;
            }
        }
    }
}

}  // namespace
}  // namespace lfs
