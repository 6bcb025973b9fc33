#include "src/util/hash.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace lfs {

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

size_t
ConsistentHashRing::lower_bound(uint64_t point) const
{
    return static_cast<size_t>(
        std::lower_bound(points_.begin(), points_.end(), point) -
        points_.begin());
}

void
ConsistentHashRing::add_member(int id)
{
    // Idempotence: probe one virtual point for presence.
    uint64_t first =
        mix64(static_cast<uint64_t>(id) * 0x100000001b3ULL + 0);
    size_t at = lower_bound(first);
    if (at < points_.size() && points_[at] == first && owners_[at] == id) {
        return;
    }
    for (int v = 0; v < vnodes_; ++v) {
        uint64_t point = mix64(static_cast<uint64_t>(id) * 0x100000001b3ULL +
                               static_cast<uint64_t>(v));
        size_t i = lower_bound(point);
        if (i < points_.size() && points_[i] == point) {
            owners_[i] = id;  // a shared point goes to the newest member
        } else {
            points_.insert(points_.begin() + static_cast<ptrdiff_t>(i), point);
            owners_.insert(owners_.begin() + static_cast<ptrdiff_t>(i), id);
        }
    }
    ++members_;
}

void
ConsistentHashRing::remove_member(int id)
{
    size_t removed = 0;
    for (int v = 0; v < vnodes_; ++v) {
        uint64_t point = mix64(static_cast<uint64_t>(id) * 0x100000001b3ULL +
                               static_cast<uint64_t>(v));
        size_t i = lower_bound(point);
        if (i < points_.size() && points_[i] == point && owners_[i] == id) {
            points_.erase(points_.begin() + static_cast<ptrdiff_t>(i));
            owners_.erase(owners_.begin() + static_cast<ptrdiff_t>(i));
            ++removed;
        }
    }
    if (removed > 0) {
        --members_;
    }
}

int
ConsistentHashRing::lookup(std::string_view key) const
{
    // FNV-1a of short, similar keys clusters in a narrow range; finalize
    // with mix64 so keys spread uniformly around the ring.
    return lookup_hash(mix64(fnv1a(key)));
}

int
ConsistentHashRing::lookup_hash(uint64_t hash) const
{
    assert(!points_.empty());
    size_t i = lower_bound(hash);
    return owners_[i == points_.size() ? 0 : i];  // wrap around
}

}  // namespace lfs
