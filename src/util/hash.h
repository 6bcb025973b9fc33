/**
 * @file
 * Hashing utilities: a 64-bit FNV-1a string hash, an integer mixer, and the
 * consistent-hash ring λFS uses to partition the namespace across function
 * deployments by parent-directory path (§3.3 of the paper).
 */
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lfs {

/** FNV-1a offset basis — seed for incremental hashing via fnv1a_mix. */
inline constexpr uint64_t kFnv1aBasis = 14695981039346656037ULL;

/**
 * Fold @p s into a running FNV-1a hash @p h. Hashing pieces in sequence
 * equals hashing their concatenation, which lets hot paths hash composite
 * keys (e.g. a parent path assembled from components) without building the
 * intermediate string.
 */
constexpr uint64_t
fnv1a_mix(uint64_t h, std::string_view s)
{
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

/** 64-bit FNV-1a hash of a byte string. */
constexpr uint64_t
fnv1a(std::string_view s)
{
    return fnv1a_mix(kFnv1aBasis, s);
}

/**
 * Transparent (heterogeneous) hash for string-keyed unordered containers:
 * lookups take std::string_view or const char* without materialising a
 * std::string. Pair with std::equal_to<> as the key-equal.
 */
struct StringHash {
    using is_transparent = void;

    size_t
    operator()(std::string_view s) const
    {
        return static_cast<size_t>(fnv1a(s));
    }
};

/** SplitMix64 finalizer — good avalanche for integer keys. */
uint64_t mix64(uint64_t x);

/**
 * A consistent-hash ring mapping string keys to numbered members.
 *
 * Each member contributes `vnodes` virtual points. Adding or removing one
 * member relocates only ~1/n of the key space, which is why λFS (and
 * HopsFS+Cache clients) use it for namespace partitioning: deployments
 * keep their cache partitions stable as the ring is reconfigured.
 */
class ConsistentHashRing {
  public:
    explicit ConsistentHashRing(int vnodes = 64) : vnodes_(vnodes) {}

    /** Add member @p id (idempotent). */
    void add_member(int id);

    /** Remove member @p id (idempotent). */
    void remove_member(int id);

    /** Number of distinct members. */
    size_t size() const { return members_; }

    bool empty() const { return members_ == 0; }

    /** Map @p key to a member id. Requires a non-empty ring. */
    int lookup(std::string_view key) const;

    /** Map a pre-hashed key to a member id. Requires a non-empty ring. */
    int lookup_hash(uint64_t hash) const;

  private:
    /** Index of the first point >= @p point (points_.size() if none). */
    size_t lower_bound(uint64_t point) const;

    int vnodes_;
    size_t members_ = 0;
    // Ring points in ascending order and the member owning each: lookups
    // binary-search one dense array instead of chasing map nodes.
    std::vector<uint64_t> points_;
    std::vector<int> owners_;
};

}  // namespace lfs
