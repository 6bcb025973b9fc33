/**
 * @file
 * Deterministic single-threaded discrete-event simulation loop.
 *
 * The Simulation owns a pooled binary min-heap of timestamped events.
 * Events scheduled at the same instant fire in FIFO order (a monotonically
 * increasing sequence number breaks ties), which makes every run with the
 * same seed bit-for-bit reproducible.
 *
 * Performance model (DESIGN.md §10): the kernel is allocation-free in
 * steady state. Event nodes are recycled through an intrusive free list
 * and carved from geometrically-growing blocks; callables are constructed
 * directly into a 48-byte inline buffer in the node (type-erased by two
 * function pointers, no std::function); coroutine resumes store the bare
 * handle — scheduling a wake-up is a pointer store. The heap orders POD
 * entries whose (when, seq) sort key is packed into one 128-bit integer,
 * so a sift level is one branchless compare plus a memcpy and never
 * touches the payloads. Events due at the current instant bypass the
 * heap entirely through a FIFO ring (NowRing).
 *
 * Cancellation: schedule() returns an EventId; cancel() destroys the
 * payload at once and leaves the queued node behind as a tombstone that
 * step() discards without touching the clock. When tombstones outnumber
 * the live heap entries the heap is rebuilt without them (Floyd's
 * heapify — keys are unique, so the pop order is unchanged).
 */
#pragma once

#include <cassert>
#include <concepts>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/flight_recorder.h"
#include "src/sim/metrics.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace lfs::sim {

class FaultPlan;

/**
 * The discrete-event simulation kernel.
 *
 * Components schedule callbacks at future simulated times; coroutine-based
 * processes (see task.h / primitives.h) are layered on top of the same
 * mechanism. The loop is strictly single-threaded.
 */
class Simulation {
  public:
    Simulation();
    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;
    ~Simulation();

    /** Request tracer for this simulation (disabled by default). */
    Tracer& tracer() { return tracer_; }
    const Tracer& tracer() const { return tracer_; }

    /** Central metric registry shared by every component of this sim. */
    MetricsRegistry& metrics() { return metrics_; }
    const MetricsRegistry& metrics() const { return metrics_; }

    /**
     * The installed fault schedule, or nullptr (the common case: no fault
     * injection). Layers with injection hooks consult this on their hot
     * paths; a null plan costs one pointer test. Installation is managed
     * by FaultPlan's constructor/destructor (see fault.h).
     */
    FaultPlan* fault_plan() const { return fault_plan_; }
    void install_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }

    /**
     * Latency attribution (DESIGN.md §11): layers always stamp per-op
     * segment durations into OpResult::ledger; this switch (off by
     * default) arms recording them — the drivers' attr.* histograms,
     * the flight recorder and the harness tables.
     */
    bool attribution() const { return attribution_; }
    void set_attribution(bool on) { attribution_ = on; }

    /** Tail-exemplar flight recorder (disabled by default). */
    FlightRecorder& flight_recorder() { return flight_recorder_; }
    const FlightRecorder& flight_recorder() const { return flight_recorder_; }

    /** Current simulated time. */
    SimTime now() const { return now_; }

  private:
    struct Event;

  public:
    /**
     * Names one scheduled event for cancel(). A default-constructed id
     * names nothing. Ids never go stale in a harmful way: once the event
     * has run or been cancelled, cancelling it again is a no-op.
     */
    class EventId {
      public:
        EventId() = default;
        explicit operator bool() const { return ev_ != nullptr; }

      private:
        friend class Simulation;
        EventId(Event* ev, uint64_t stamp) : ev_(ev), stamp_(stamp) {}
        Event* ev_ = nullptr;
        uint64_t stamp_ = 0;
    };

    /** Schedule @p fn to run @p delay from now. Negative delays clamp to 0. */
    template <typename F>
        requires std::invocable<std::decay_t<F>&>
    EventId
    schedule(SimTime delay, F&& fn)
    {
        return schedule_at(delay < 0 ? now_ : now_ + delay,
                           std::forward<F>(fn));
    }

    /** Schedule @p fn at absolute time @p when (clamped to >= now). */
    template <typename F>
        requires std::invocable<std::decay_t<F>&>
    EventId
    schedule_at(SimTime when, F&& fn)
    {
        return push_event(when, make_event(std::forward<F>(fn)));
    }

    /**
     * Resume @p h after @p delay — the coroutine fast path used by every
     * synchronization primitive: no type erasure, just a handle store.
     */
    EventId
    schedule(SimTime delay, std::coroutine_handle<> h)
    {
        return schedule_at(delay < 0 ? now_ : now_ + delay, h);
    }

    /** Resume @p h at absolute time @p when (clamped to >= now). */
    EventId
    schedule_at(SimTime when, std::coroutine_handle<> h)
    {
        Event* ev = alloc_event();
        ev->fire = &Event::fire_handle;
        ev->payload.handle = h;
        return push_event(when, ev);
    }

    /**
     * Drop a scheduled event that has not run yet: its payload is
     * destroyed now and never invoked. A cancelled event does not advance
     * the clock, counts toward neither events_executed() nor pending(),
     * and leaves the (when, seq) order of every other event unchanged.
     * @return true if @p id named a still-queued event.
     */
    bool cancel(EventId id);

    /**
     * Run the next pending event, advancing the clock to its timestamp.
     * @return false if no events remain or the simulation was stopped.
     */
    bool step();

    /** Run until the event heap drains or stop() is called. */
    void run();

    /**
     * Run all events with timestamp <= @p t, then set the clock to @p t.
     * Events scheduled exactly at @p t do fire.
     */
    void run_until(SimTime t);

    /** Stop the loop; pending events stay queued. */
    void stop() { stopped_ = true; }

    /** True once stop() has been called (cleared by resume()). */
    bool stopped() const { return stopped_; }

    /** Clear the stop flag so run()/run_until() may continue. */
    void resume() { stopped_ = false; }

    /** Number of events executed so far (for diagnostics and tests). */
    uint64_t events_executed() const { return executed_; }

    /** Number of events currently queued (cancelled ones excluded). */
    size_t
    pending() const
    {
        return heap_.size() + ring_.size() - dead_;
    }

    /** High-water mark of pending() over the simulation's lifetime. */
    size_t peak_pending() const { return peak_pending_; }

    /**
     * Pre-size the heap and node pool for @p n concurrently-pending
     * events, avoiding growth reallocations mid-run.
     */
    void reserve_events(size_t n);

  private:
    /**
     * A pooled event node. The payload union holds either a bare
     * coroutine handle, a callable constructed inline (sizeof(F) <=
     * kInlineBytes — every callable this codebase schedules), or a
     * pointer to a heap-allocated callable as a rare fallback. While the
     * node sits on the free list the union holds the next-free link.
     */
    struct Event {
        static constexpr size_t kInlineBytes = 48;
        /** stamp of a node that is not a live queued event. */
        static constexpr uint64_t kNoStamp = ~uint64_t{0};

        union Payload {
            Payload() {}
            ~Payload() {}
            std::coroutine_handle<> handle;
            void* heap_fn;
            Event* next_free;
            alignas(std::max_align_t) unsigned char buf[kInlineBytes];
        };

        /**
         * Destroy the payload, running it first when @p run is true
         * (false: cancellation or kernel teardown).
         */
        void (*fire)(Event*, bool run);
        /**
         * (seq << 1) | in_heap while the event is queued and live;
         * kNoStamp once it runs or is cancelled. EventId carries a copy,
         * so a stale id never matches a recycled node.
         */
        uint64_t stamp = kNoStamp;
        Payload payload;

        // Dropping a pending resume leaks the suspended frame by design
        // (see primitives.h lifetime rule) — same as the std::function
        // kernel, which destroyed the [h] lambda without resuming it.
        static void
        fire_handle(Event* e, bool run)
        {
            if (run) {
                e->payload.handle.resume();
            }
        }

        template <typename F>
        static void
        fire_inline(Event* e, bool run)
        {
            F* f = std::launder(reinterpret_cast<F*>(e->payload.buf));
            struct Destroyer {  // destroy even if (*f)() throws
                F* f;
                ~Destroyer() { f->~F(); }
            } d{f};
            if (run) {
                (*f)();
            }
        }

        template <typename F>
        static void
        fire_heap(Event* e, bool run)
        {
            std::unique_ptr<F> f(static_cast<F*>(e->payload.heap_fn));
            if (run) {
                (*f)();
            }
        }
    };
    static_assert(sizeof(Event) == 64, "one cache line per event node");

    /**
     * POD heap entry; comparisons never dereference the node. The sort
     * key packs (when, seq) into one 128-bit integer — when occupies the
     * high 64 bits (SimTime is non-negative in-queue), so a single
     * branchless integer compare realises the (when, seq) lexicographic
     * FIFO order.
     */
    struct HeapEntry {
        unsigned __int128 key;
        Event* ev;

        static unsigned __int128
        make_key(SimTime when, uint64_t seq)
        {
            return (static_cast<unsigned __int128>(
                        static_cast<uint64_t>(when))
                    << 64) |
                   seq;
        }

        SimTime when() const
        {
            return static_cast<SimTime>(static_cast<uint64_t>(key >> 64));
        }

        uint64_t seq() const { return static_cast<uint64_t>(key); }
    };

    /** Ring entry for events due at the current instant (when == now_). */
    struct RingEntry {
        uint64_t seq;
        Event* ev;
    };

    /**
     * FIFO of events scheduled *at the current instant* — the wake-up
     * path every synchronization primitive takes (schedule(0, ...)).
     * Invariant: while non-empty, every entry is due at exactly now_, so
     * enqueue/dequeue are O(1) ring operations instead of heap sifts.
     * The clock cannot advance past them: step() always picks the global
     * (when, seq) minimum across ring and heap, and a non-empty ring
     * holds an event due now. Sequence numbers still interleave ring and
     * heap events at the same timestamp in exact FIFO order.
     */
    class NowRing {
      public:
        bool empty() const { return size_ == 0; }
        size_t size() const { return size_; }
        const RingEntry& front() const { return buf_[head_]; }

        void
        push(RingEntry entry)
        {
            if (size_ == buf_.size()) {
                grow();
            }
            buf_[(head_ + size_) & (buf_.size() - 1)] = entry;
            ++size_;
        }

        RingEntry
        pop()
        {
            RingEntry entry = buf_[head_];
            head_ = (head_ + 1) & (buf_.size() - 1);
            --size_;
            return entry;
        }

        template <typename Fn>
        void
        for_each(Fn&& fn) const
        {
            for (size_t i = 0; i < size_; ++i) {
                fn(buf_[(head_ + i) & (buf_.size() - 1)]);
            }
        }

        void reserve(size_t n);

      private:
        void grow();

        std::vector<RingEntry> buf_;  ///< power-of-two capacity
        size_t head_ = 0;
        size_t size_ = 0;
    };

    template <typename F>
    Event*
    make_event(F&& fn)
    {
        using Fn = std::decay_t<F>;
        Event* ev = alloc_event();
        if constexpr (sizeof(Fn) <= Event::kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void*>(ev->payload.buf))
                Fn(std::forward<F>(fn));
            ev->fire = &Event::template fire_inline<Fn>;
        } else {
            ev->payload.heap_fn = new Fn(std::forward<F>(fn));
            ev->fire = &Event::template fire_heap<Fn>;
        }
        return ev;
    }

    Event*
    alloc_event()
    {
        Event* ev = free_list_;
        if (ev != nullptr) {
            free_list_ = ev->payload.next_free;
            return ev;
        }
        return carve_block();
    }

    void
    release_event(Event* ev)
    {
        ev->payload.next_free = free_list_;
        free_list_ = ev;
    }

    /** Queue @p ev: the NowRing when due now, else the heap. */
    EventId push_event(SimTime when, Event* ev);

    /** Remove and return the minimum entry (heap must be non-empty). */
    HeapEntry pop_event();

    /** Place @p entry at slot @p i or below, restoring the heap order. */
    void sift_down(size_t i, HeapEntry entry);

    /** Discard tombstones at the queue fronts; compact a dead-heavy heap. */
    void
    drop_cancelled()
    {
        if (dead_ != 0) {
            drop_cancelled_slow();
        }
    }
    void drop_cancelled_slow();

    /** Allocate a fresh node block, push all but one onto the free list. */
    Event* carve_block();

    SimTime now_ = 0;
    FaultPlan* fault_plan_ = nullptr;
    bool attribution_ = false;
    uint64_t next_seq_ = 0;
    uint64_t executed_ = 0;
    bool stopped_ = false;
    size_t peak_pending_ = 0;
    std::vector<HeapEntry> heap_;
    NowRing ring_;
    size_t dead_ = 0;       ///< cancelled nodes still queued (ring + heap)
    size_t heap_dead_ = 0;  ///< the part of dead_ that sits in heap_
    Event* free_list_ = nullptr;
    std::vector<std::unique_ptr<Event[]>> blocks_;
    size_t next_block_size_ = 256;
    MetricsRegistry metrics_;
    Tracer tracer_;
    FlightRecorder flight_recorder_;
};

}  // namespace lfs::sim
