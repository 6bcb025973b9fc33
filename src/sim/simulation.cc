#include "src/sim/simulation.h"

#include "src/sim/task.h"

namespace lfs::sim {

namespace {

/**
 * Heap arity. Binary measured fastest on the kernel microbenchmarks:
 * wider nodes (4/8-ary) cut depth but pay extra key comparisons per
 * level, and with the packed 128-bit keys the comparison is the whole
 * cost of a level.
 */
constexpr size_t kArity = 2;

constexpr size_t
parent_of(size_t i)
{
    return (i - 1) / kArity;
}

constexpr size_t
first_child_of(size_t i)
{
    return kArity * i + 1;
}

constexpr size_t
round_up_pow2(size_t n)
{
    size_t p = 1;
    while (p < n) {
        p <<= 1;
    }
    return p;
}

}  // namespace

void
Simulation::NowRing::grow()
{
    size_t cap = buf_.empty() ? 256 : buf_.size() * 2;
    std::vector<RingEntry> next(cap);
    for (size_t i = 0; i < size_; ++i) {
        next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    }
    buf_ = std::move(next);
    head_ = 0;
}

void
Simulation::NowRing::reserve(size_t n)
{
    if (n <= buf_.size()) {
        return;
    }
    size_t cap = round_up_pow2(n);
    std::vector<RingEntry> next(cap);
    for (size_t i = 0; i < size_; ++i) {
        next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    }
    buf_ = std::move(next);
    head_ = 0;
}

Simulation::Simulation()
    : tracer_(*this)
{
    heap_.reserve(1024);
    metrics_.register_callback_gauge(
        "sim.event_backlog", {},
        [this] { return static_cast<double>(pending()); }, this);
}

Simulation::~Simulation()
{
    // Pending payloads are destroyed, never run (matches the previous
    // kernel, where ~priority_queue destroyed the queued std::functions).
    // Each node is marked dead first, so a payload whose destructor
    // cancels another queued event cannot destroy anything twice.
    auto dispose = [](Event* ev) {
        if (ev->stamp != Event::kNoStamp) {
            ev->stamp = Event::kNoStamp;
            ev->fire(ev, false);
        }
    };
    ring_.for_each([&](const RingEntry& entry) { dispose(entry.ev); });
    for (const HeapEntry& entry : heap_) {
        dispose(entry.ev);
    }
    detail::FramePool::release_parked();
}

Simulation::Event*
Simulation::carve_block()
{
    auto block = std::make_unique<Event[]>(next_block_size_);
    Event* raw = block.get();
    // All but the first node feed the free list; the first is returned.
    for (size_t i = 1; i < next_block_size_; ++i) {
        release_event(&raw[i]);
    }
    blocks_.push_back(std::move(block));
    next_block_size_ *= 2;
    return raw;
}

void
Simulation::reserve_events(size_t n)
{
    heap_.reserve(n);
    ring_.reserve(n);
    size_t have = 0;
    for (Event* ev = free_list_; ev != nullptr; ev = ev->payload.next_free) {
        ++have;
    }
    while (have < n) {
        size_t block = next_block_size_;
        release_event(carve_block());
        have += block;
    }
}

Simulation::EventId
Simulation::push_event(SimTime when, Event* ev)
{
    uint64_t seq = next_seq_++;
    uint64_t stamp = seq << 1;
    if (when <= now_) {
        // Due at the current instant: O(1) FIFO append, no heap sift.
        ring_.push(RingEntry{seq, ev});
    } else {
        stamp |= 1;
        HeapEntry entry{HeapEntry::make_key(when, seq), ev};
        size_t i = heap_.size();
        heap_.push_back(entry);
        while (i > 0) {
            size_t p = parent_of(i);
            if (entry.key >= heap_[p].key) {
                break;
            }
            heap_[i] = heap_[p];
            i = p;
        }
        heap_[i] = entry;
    }
    ev->stamp = stamp;
    if (pending() > peak_pending_) {
        peak_pending_ = pending();
    }
    return EventId(ev, stamp);
}

bool
Simulation::cancel(EventId id)
{
    Event* ev = id.ev_;
    if (ev == nullptr || ev->stamp != id.stamp_) {
        return false;  // already ran or already cancelled
    }
    // The node stays queued as a tombstone until it reaches a front or
    // the heap is compacted; only the payload goes now.
    ev->stamp = Event::kNoStamp;
    ++dead_;
    if ((id.stamp_ & 1) != 0) {
        ++heap_dead_;
    }
    ev->fire(ev, false);
    return true;
}

void
Simulation::sift_down(size_t i, HeapEntry entry)
{
    size_t n = heap_.size();
    for (;;) {
        size_t first = first_child_of(i);
        if (first >= n) {
            break;
        }
        size_t stop = first + kArity < n ? first + kArity : n;
        size_t best = first;
        for (size_t c = first + 1; c < stop; ++c) {
            if (heap_[c].key < heap_[best].key) {
                best = c;
            }
        }
        if (heap_[best].key >= entry.key) {
            break;
        }
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = entry;
}

Simulation::HeapEntry
Simulation::pop_event()
{
    HeapEntry top = heap_.front();
    HeapEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        sift_down(0, last);
    }
    return top;
}

void
Simulation::drop_cancelled_slow()
{
    while (!ring_.empty() && ring_.front().ev->stamp == Event::kNoStamp) {
        release_event(ring_.pop().ev);
        --dead_;
    }
    if (2 * heap_dead_ > heap_.size()) {
        // Tombstones outnumber live entries: drop them all and heapify
        // the survivors bottom-up (O(n), amortized over the cancels).
        size_t live = 0;
        for (const HeapEntry& entry : heap_) {
            if (entry.ev->stamp == Event::kNoStamp) {
                release_event(entry.ev);
            } else {
                heap_[live++] = entry;
            }
        }
        heap_.resize(live);
        dead_ -= heap_dead_;
        heap_dead_ = 0;
        for (size_t i = live / 2; i-- > 0;) {
            sift_down(i, heap_[i]);
        }
    }
    while (!heap_.empty() && heap_.front().ev->stamp == Event::kNoStamp) {
        release_event(pop_event().ev);
        --heap_dead_;
        --dead_;
    }
}

bool
Simulation::step()
{
    if (stopped_) {
        return false;
    }
    drop_cancelled();
    Event* ev;
    if (!ring_.empty()) {
        // Ring entries are due at now_; a heap event at the same instant
        // with a smaller sequence number still goes first (FIFO contract).
        if (!heap_.empty() && heap_.front().when() == now_ &&
            heap_.front().seq() < ring_.front().seq) {
            ev = pop_event().ev;
        } else {
            ev = ring_.pop().ev;
        }
    } else if (!heap_.empty()) {
        HeapEntry entry = pop_event();
        now_ = entry.when();
        ev = entry.ev;
    } else {
        return false;
    }
    ++executed_;
    ev->stamp = Event::kNoStamp;  // running: no longer cancellable
    // Release the node only after the payload ran: the callback may
    // schedule (and thus reuse nodes), but never this still-running one.
    struct Releaser {
        Simulation* sim;
        Event* ev;
        ~Releaser() { sim->release_event(ev); }
    } releaser{this, ev};
    ev->fire(ev, true);
    return true;
}

void
Simulation::run()
{
    while (step()) {
    }
}

void
Simulation::run_until(SimTime t)
{
    // Ring entries are due at exactly now_, so they qualify iff now_ <= t
    // (run_until(t) with t in the past must not run future events).
    // Tombstones go first, so a cancelled event's time never counts.
    while (!stopped_) {
        drop_cancelled();
        if (!((!ring_.empty() && now_ <= t) ||
              (!heap_.empty() && heap_.front().when() <= t))) {
            break;
        }
        step();
    }
    if (!stopped_ && now_ < t) {
        now_ = t;
    }
}

}  // namespace lfs::sim
