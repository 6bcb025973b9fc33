/**
 * @file
 * Unit tests for the deployment-scoped retained-result cache (§3.2):
 * done hits, in-flight joins, first-completion-wins, FIFO eviction,
 * client release checked against a model of the FIFO ring, the disabled
 * mode, and an allocation-free warm round.
 *
 * The zero-allocation proof instruments the global allocator, so this
 * suite lives in its own binary (one executable per test_*.cc).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <map>
#include <new>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/core/result_cache.h"
#include "src/sim/primitives.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace {

uint64_t g_heap_calls = 0;

void*
counted_malloc(std::size_t size)
{
    ++g_heap_calls;
    void* p = std::malloc(size);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

/** Every delete form's body, so no form forwards to another. */
void
counted_free(void* p) noexcept
{
    if (p != nullptr) {
        ++g_heap_calls;
    }
    std::free(p);
}

}  // namespace

void*
operator new(std::size_t size)
{
    return counted_malloc(size);
}

void*
operator new[](std::size_t size)
{
    return counted_malloc(size);
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

TEST(ResultCache, ReleaseDropsOnlyADoneRecord)
{
    sim::Simulation sim;
    ResultCache cache(sim, 4);
    // In flight: release is a no-op and the completion is retained.
    EXPECT_FALSE(lookup(sim, cache, 1).has_value());
    cache.release(1);
    cache.complete(1, make_result(10));
    EXPECT_EQ(cache.live(), 1u);
    ASSERT_TRUE(lookup(sim, cache, 1).has_value());
    // Unknown ids (and the untracked id 0) are no-ops.
    cache.release(99);
    cache.release(0);
    EXPECT_EQ(cache.live(), 1u);
    // Done: released, so a later lookup executes afresh.
    cache.release(1);
    EXPECT_EQ(cache.live(), 0u);
    EXPECT_FALSE(lookup(sim, cache, 1).has_value());
    cache.complete(1, make_result(11));
    EXPECT_EQ(lookup(sim, cache, 1)->inode.id, static_cast<ns::INodeId>(11));
}

TEST(ResultCache, ReleaseOfAnExpiredIdLeavesTheWindowAlone)
{
    sim::Simulation sim;
    ResultCache cache(sim, 3);
    for (uint64_t id = 1; id <= 4; ++id) {
        EXPECT_FALSE(lookup(sim, cache, id).has_value());
        cache.complete(id, make_result(static_cast<int64_t>(10 * id)));
    }
    EXPECT_EQ(cache.live(), 3u);
    cache.release(1);  // expired by the fourth completion
    EXPECT_EQ(cache.live(), 3u);
    for (uint64_t id = 2; id <= 4; ++id) {
        EXPECT_TRUE(lookup(sim, cache, id).has_value()) << id;
    }
}

TEST(ResultCache, ReleasedCompletionsStillAdvanceTheWindow)
{
    sim::Simulation sim;
    ResultCache cache(sim, 3);
    // 1 stays unreleased; 2 and 3 are released at once. Completing 4
    // puts 1 outside the last three completions, exactly as the ring of
    // three slots would have overwritten it.
    for (uint64_t id = 1; id <= 3; ++id) {
        EXPECT_FALSE(lookup(sim, cache, id).has_value());
        cache.complete(id, make_result(static_cast<int64_t>(id)));
        if (id > 1) {
            cache.release(id);
        }
    }
    EXPECT_EQ(cache.live(), 1u);
    EXPECT_FALSE(lookup(sim, cache, 4).has_value());
    cache.complete(4, make_result(4));
    EXPECT_EQ(cache.live(), 1u);  // 4 in, 1 expired
    EXPECT_FALSE(lookup(sim, cache, 1).has_value());
}

/**
 * The retention the cache must reproduce: a FIFO ring of `capacity`
 * done results (first completion wins) without any release. Release
 * only marks a retained entry, for counting live records.
 */
class RingModel {
  public:
    explicit RingModel(size_t capacity) : capacity_(capacity) {}

    /** Hit: the retained payload. Miss: the id is now in flight. */
    std::optional<int64_t> lookup(uint64_t op_id)
    {
        if (const Entry* e = find(op_id)) {
            ++hits_;
            return e->payload;
        }
        in_flight_.insert(op_id);
        return std::nullopt;
    }

    void join() { ++hits_; }

    void complete(uint64_t op_id, int64_t payload)
    {
        if (find(op_id) != nullptr) {
            return;
        }
        in_flight_.erase(op_id);
        done_.push_back(Entry{op_id, payload, false});
        if (done_.size() > capacity_) {
            done_.pop_front();
        }
    }

    void release(uint64_t op_id)
    {
        if (Entry* e = find(op_id)) {
            e->released = true;
        }
    }

    bool in_flight(uint64_t op_id) const { return in_flight_.count(op_id); }
    const std::set<uint64_t>& in_flight_ids() const { return in_flight_; }
    uint64_t hits() const { return hits_; }

    size_t unreleased() const
    {
        return static_cast<size_t>(
            std::count_if(done_.begin(), done_.end(),
                          [](const Entry& e) { return !e.released; }));
    }

  private:
    struct Entry {
        uint64_t op_id;
        int64_t payload;
        bool released;
    };

    Entry* find(uint64_t op_id)
    {
        auto it = std::find_if(done_.begin(), done_.end(),
                               [op_id](const Entry& e) {
                                   return e.op_id == op_id;
                               });
        return it == done_.end() ? nullptr : &*it;
    }

    size_t capacity_;
    std::deque<Entry> done_;
    std::set<uint64_t> in_flight_;
    uint64_t hits_ = 0;
};

enum class Step { kLookup, kJoin, kComplete, kRelease };

struct Action {
    Step step;
    uint64_t op_id;
};

/**
 * A seeded stream of fresh lookups, re-lookups of done ids, joins of
 * in-flight ids, completions (some of done ids: first completion wins),
 * and releases of in-flight and never-seen ids. Generated against the
 * ring model, which decides what is in flight. Then releases of done
 * ids are spliced in, each after the id's last reference, so no later
 * step of the stream can observe them.
 */
std::vector<Action>
make_stream(uint64_t seed, size_t capacity, int steps)
{
    std::mt19937_64 rng(seed);
    auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
    RingModel ring(capacity);
    std::vector<Action> stream;
    std::vector<uint64_t> done;  // ids completed at least once
    uint64_t next_id = 0;
    for (int i = 0; i < steps; ++i) {
        const auto& in_flight = ring.in_flight_ids();
        auto any_in_flight = [&] {
            return *std::next(in_flight.begin(),
                              static_cast<long>(pick(in_flight.size())));
        };
        const size_t r = pick(100);
        if (r < 25 || (in_flight.empty() && r < 70)) {
            const uint64_t id = ++next_id << 8;  // spread over the index
            ring.lookup(id);
            stream.push_back({Step::kLookup, id});
        } else if (r < 35) {
            ring.join();
            stream.push_back({Step::kJoin, any_in_flight()});
        } else if (r < 70) {
            const uint64_t id = any_in_flight();
            ring.complete(id, static_cast<int64_t>(i));
            done.push_back(id);
            stream.push_back({Step::kComplete, id});
        } else if (r < 95) {
            // A done id again: looked up, or completed a second time.
            const uint64_t id = done.empty() ? 0 : done[pick(done.size())];
            if (id == 0 || ring.in_flight(id)) {
                continue;
            }
            if (r < 90) {
                ring.lookup(id);
                stream.push_back({Step::kLookup, id});
            } else {
                ring.complete(id, static_cast<int64_t>(i));
                stream.push_back({Step::kComplete, id});
            }
        } else if (r < 98 && !in_flight.empty()) {
            stream.push_back({Step::kRelease, any_in_flight()});
        } else {
            stream.push_back({Step::kRelease, (++next_id << 8) | 1});
        }
    }
    std::map<uint64_t, size_t> last_ref;
    for (size_t i = 0; i < stream.size(); ++i) {
        if (stream[i].step != Step::kRelease) {
            last_ref[stream[i].op_id] = i;
        }
    }
    std::multimap<size_t, uint64_t> releases;  // insert before position
    for (const auto& [id, i] : last_ref) {
        if (stream[i].step == Step::kComplete && pick(4) != 0) {
            // Mostly soon after the completion, sometimes long after it
            // (by then the record may already have expired).
            const size_t delay = pick(8) == 0 ? pick(4 * capacity)
                                              : pick(8);
            releases.emplace(std::min(stream.size(), i + 1 + delay), id);
        }
    }
    std::vector<Action> out;
    auto next_release = releases.begin();
    for (size_t i = 0; i <= stream.size(); ++i) {
        for (; next_release != releases.end() && next_release->first == i;
             ++next_release) {
            out.push_back({Step::kRelease, next_release->second});
        }
        if (i < stream.size()) {
            out.push_back(stream[i]);
        }
    }
    return out;
}

TEST(ResultCache, ReleaseMatchesTheFifoRingOnSeededStreams)
{
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const size_t capacity = 4 + 5 * (seed % 4);
        const std::vector<Action> stream = make_stream(seed, capacity, 3000);
        sim::Simulation sim;
        ResultCache cache(sim, capacity);
        RingModel ring(capacity);
        std::deque<std::optional<OpResult>> join_outs;  // stable addresses
        std::map<uint64_t, std::vector<std::optional<OpResult>*>> joined;
        size_t releases_of_done = 0;
        for (size_t i = 0; i < stream.size(); ++i) {
            const Action& a = stream[i];
            const auto payload = static_cast<int64_t>(i + 1);
            switch (a.step) {
            case Step::kLookup: {
                std::optional<int64_t> want = ring.lookup(a.op_id);
                std::optional<OpResult> got = lookup(sim, cache, a.op_id);
                ASSERT_EQ(got.has_value(), want.has_value()) << "step " << i;
                if (want.has_value()) {
                    expect_same_observable(*got, make_result(*want));
                }
                break;
            }
            case Step::kJoin:
                ring.join();
                join_outs.emplace_back();
                joined[a.op_id].push_back(&join_outs.back());
                sim::spawn(co_lookup(cache, a.op_id, join_outs.back()));
                sim.run();
                ASSERT_FALSE(join_outs.back().has_value()) << "step " << i;
                break;
            case Step::kComplete: {
                // Joins resolve with the first completion of the id.
                const bool first = ring.in_flight(a.op_id);
                ring.complete(a.op_id, payload);
                cache.complete(a.op_id, make_result(payload));
                sim.run();
                for (std::optional<OpResult>* out : joined[a.op_id]) {
                    ASSERT_TRUE(first);
                    ASSERT_TRUE(out->has_value()) << "step " << i;
                    expect_same_observable(**out, make_result(payload));
                }
                joined.erase(a.op_id);
                break;
            }
            case Step::kRelease:
                if (!ring.in_flight(a.op_id)) {
                    ++releases_of_done;
                }
                ring.release(a.op_id);
                cache.release(a.op_id);
                break;
            }
            ASSERT_EQ(cache.hits(), ring.hits()) << "step " << i;
            ASSERT_EQ(cache.live(), ring.unreleased()) << "step " << i;
        }
        EXPECT_GT(releases_of_done, 100u);
        EXPECT_GT(ring.hits(), 100u);
    }
}

sim::Task<void>
co_rounds(ResultCache& cache, uint64_t first_id, int rounds,
          const OpResult& result, int& misses, bool release = false)
{
    for (int i = 0; i < rounds; ++i) {
        uint64_t id = first_id + static_cast<uint64_t>(i);
        std::optional<OpResult> retained = co_await cache.lookup_or_begin(id);
        if (!retained.has_value()) {
            ++misses;
            cache.complete(id, result);
            if (release) {
                cache.release(id);
            }
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

    // The released round: the record dies with the op, and the next
    // completion reuses its slot (and buffers) from the free list. Warm
    // up until every unreleased record above has expired, so the free
    // list has reached its working size.
    sim::spawn(co_rounds(cache, 200000, 2 * static_cast<int>(capacity),
                         result, misses, /*release=*/true));
    sim.run();
    misses = 0;
    const uint64_t before_release = g_heap_calls;
    sim::spawn(co_rounds(cache, 300000, 2 * static_cast<int>(capacity),
                         result, misses, /*release=*/true));
    sim.run();
    EXPECT_EQ(misses, 2 * static_cast<int>(capacity));
    EXPECT_EQ(g_heap_calls - before_release, 0u)
        << "a warm lookup_or_begin + complete + release round touched "
           "the heap";
    EXPECT_EQ(cache.live(), 0u);
}

}  // namespace
}  // namespace lfs::core
