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
    ring_.for_each([](const RingEntry& entry) { entry.ev->dispose(entry.ev); });
    for (const HeapEntry& entry : heap_) {
        entry.ev->dispose(entry.ev);
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

void
Simulation::push_event(SimTime when, Event* ev)
{
    uint64_t seq = next_seq_++;
    if (when <= now_) {
        // Due at the current instant: O(1) FIFO append, no heap sift.
        ring_.push(RingEntry{seq, ev});
    } else {
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
    if (pending() > peak_pending_) {
        peak_pending_ = pending();
    }
}

Simulation::HeapEntry
Simulation::pop_event()
{
    HeapEntry top = heap_.front();
    HeapEntry last = heap_.back();
    heap_.pop_back();
    size_t n = heap_.size();
    if (n > 0) {
        size_t i = 0;
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
            if (heap_[best].key >= last.key) {
                break;
            }
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = last;
    }
    return top;
}

bool
Simulation::step()
{
    if (stopped_) {
        return false;
    }
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
    // Release the node only after the payload ran: the callback may
    // schedule (and thus reuse nodes), but never this still-running one.
    struct Releaser {
        Simulation* sim;
        Event* ev;
        ~Releaser() { sim->release_event(ev); }
    } releaser{this, ev};
    ev->invoke(ev);
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
    while (!stopped_ &&
           ((!ring_.empty() && now_ <= t) ||
            (!heap_.empty() && heap_.front().when() <= t))) {
        step();
    }
    if (!stopped_ && now_ < t) {
        now_ = t;
    }
}

}  // namespace lfs::sim
