/**
 * @file
 * Deterministic end-to-end request tracing for the simulator.
 *
 * A Tracer records spans — (trace_id, span_id, parent, component, name,
 * start/end SimTime, key=value annotations) — into a fixed-capacity ring
 * buffer. Components thread a TraceContext through the request path (it
 * rides inside Op), so one client operation produces a nested span tree:
 * client attempt → gateway queue → cold start → function execution →
 * store transaction / lock wait → coherence INV round.
 *
 * Tracing is disabled by default and is zero-overhead when disabled:
 * start_trace()/start_span() return an inactive Span, no record is
 * allocated, and every Span method is a no-op. Because recording never
 * schedules simulation events, enabling tracing cannot change simulated
 * results; two runs with the same seed export byte-identical traces.
 *
 * Export formats: Chrome trace_event JSON (load in chrome://tracing or
 * https://ui.perfetto.dev) and a plain-text flame summary aggregated by
 * (component, span name).
 */
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/time.h"

namespace lfs::sim {

class Simulation;
class Tracer;

/**
 * The causal coordinates a request carries through the system. trace_id 0
 * means "not traced" (tracing disabled, or the request predates enabling).
 */
struct TraceContext {
    uint64_t trace_id = 0;
    uint64_t parent_span = 0;
};

/**
 * Handle to one in-flight span. Move-only; ends the span on destruction
 * (or explicitly via end()). All methods are no-ops on an inactive handle,
 * so call sites need no "is tracing on?" branches.
 */
class Span {
  public:
    Span() = default;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span(Span&& other) noexcept { *this = std::move(other); }
    Span& operator=(Span&& other) noexcept;
    ~Span() { end(); }

    bool active() const { return tracer_ != nullptr; }

    /** Context for child spans of this span. */
    TraceContext context() const { return {trace_id_, span_id_}; }

    /**
     * Attach a key=value annotation. Keys must be string literals.
     * Inline-guarded: an inactive span (tracing off) costs one branch.
     */
    void
    annotate(const char* key, const std::string& value)
    {
        if (tracer_ != nullptr) {
            annotate_impl(key, value);
        }
    }
    void
    annotate(const char* key, const char* value)
    {
        if (tracer_ != nullptr) {
            annotate_impl(key, value);
        }
    }
    void
    annotate(const char* key, int64_t value)
    {
        if (tracer_ != nullptr) {
            annotate_impl(key, value);
        }
    }

    /**
     * Close the span at the current simulated time (idempotent). The
     * inactive case (tracing off) is a single inlined branch — Spans are
     * created and destroyed on the event hot path.
     */
    void
    end()
    {
        if (tracer_ != nullptr) {
            end_impl();
        }
    }

  private:
    friend class Tracer;

    void annotate_impl(const char* key, const std::string& value);
    void annotate_impl(const char* key, const char* value);
    void annotate_impl(const char* key, int64_t value);
    void end_impl();

    Span(Tracer* tracer, size_t index, uint64_t trace_id, uint64_t span_id)
        : tracer_(tracer),
          index_(index),
          trace_id_(trace_id),
          span_id_(span_id)
    {
    }

    Tracer* tracer_ = nullptr;
    size_t index_ = 0;
    uint64_t trace_id_ = 0;
    uint64_t span_id_ = 0;
};

/** Read-only view of one recorded span (tests and custom exporters). */
struct SpanView {
    uint64_t trace_id;
    uint64_t span_id;
    uint64_t parent_id;
    const char* component;
    const char* name;
    SimTime start;
    SimTime end;  ///< -1 while still open
    const std::vector<std::pair<const char*, std::string>>* annotations;
};

class Tracer {
  public:
    /** Default ring capacity (spans retained; oldest overwritten). */
    static constexpr size_t kDefaultCapacity = 1 << 18;

    explicit Tracer(Simulation& sim, size_t capacity = kDefaultCapacity);

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    bool enabled() const { return enabled_; }
    void set_enabled(bool on) { enabled_ = on; }

    /**
     * Gate for span annotations. Light tracing (annotations off)
     * records span timings — enough for the flight recorder's exemplar
     * span trees — but skips the per-op annotation strings; full
     * tracing keeps them on (the default).
     */
    bool annotations_enabled() const { return annotations_enabled_; }
    void set_annotations_enabled(bool on) { annotations_enabled_ = on; }

    /** Resize the ring buffer (drops everything recorded so far). */
    void set_capacity(size_t capacity);

    /**
     * Open a root span, allocating a fresh trace id. Inline-guarded so
     * the disabled case compiles down to one branch at the call site.
     */
    Span
    start_trace(const char* component, const char* name)
    {
        if (!enabled_) {
            return Span();
        }
        return open(component, name, next_trace_id_++, 0);
    }

    /**
     * Open a span under @p parent. A zero parent trace id (untraced
     * request) starts a new root trace instead. Disabled-path cost: one
     * inlined branch.
     */
    Span
    start_span(const char* component, const char* name, TraceContext parent)
    {
        if (!enabled_) {
            return Span();
        }
        if (parent.trace_id == 0) {
            return open(component, name, next_trace_id_++, 0);
        }
        return open(component, name, parent.trace_id, parent.parent_span);
    }

    /** Spans opened since construction/clear (0 while disabled). */
    uint64_t spans_started() const { return spans_started_; }

    /** Spans overwritten because the ring wrapped. */
    uint64_t spans_dropped() const { return spans_dropped_; }

    /**
     * Writes into ring slots since construction: span opens, ends and
     * annotations. A run with tracing off must leave it at 0 (the
     * structural form of "disabled tracing is one branch").
     */
    uint64_t slot_writes() const { return slot_writes_; }

    /** Heap bytes the tracer holds: the ring and annotation storage. */
    size_t heap_bytes() const;

    /** Spans currently held in the ring. */
    size_t recorded() const;

    void clear();

    /** Recorded spans, oldest first. Views borrow the tracer's storage. */
    std::vector<SpanView> snapshot() const;

    /**
     * Spans belonging to @p trace_id still present in the ring, oldest
     * first. Scans backward in creation order and stops at the first
     * record whose start predates @p not_before — spans are recorded in
     * monotonic sim-time order, so a request's spans all start at or
     * after the request itself and the scan is bounded by the spans
     * recorded during the request's lifetime, not the ring size. Pass
     * not_before = 0 (the default) for a full-ring scan.
     */
    std::vector<SpanView> spans_for_trace(uint64_t trace_id,
                                          SimTime not_before = 0) const;

    /**
     * The recorded spans as a comma-joined sequence of Chrome trace_event
     * "X" (complete) events with the given pid — a fragment for callers
     * merging several runs into one document.
     */
    std::string chrome_trace_events(int pid) const;

    /** A complete Chrome trace_event JSON document. */
    std::string chrome_trace_json() const;

    /** Write chrome_trace_json() to @p path. @return false on I/O error. */
    bool write_chrome_trace(const std::string& path) const;

    /**
     * Plain-text table aggregating span count / total / mean / max per
     * (component, name), sorted by total time descending.
     */
    std::string flame_summary() const;

  private:
    friend class Span;

    struct Record {
        uint64_t trace_id = 0;
        uint64_t span_id = 0;  ///< 0 = empty slot
        uint64_t parent_id = 0;
        const char* component = "";
        const char* name = "";
        SimTime start = 0;
        SimTime end = -1;
        std::vector<std::pair<const char*, std::string>> annotations;
    };

    /** Slot for @p index iff it still holds span @p span_id. */
    Record* resolve(size_t index, uint64_t span_id);

    Span open(const char* component, const char* name, uint64_t trace_id,
              uint64_t parent_id);
    void end_span(size_t index, uint64_t span_id);

    /** Ring indices in creation order, oldest first. */
    std::vector<size_t> ordered_slots() const;

    Simulation& sim_;
    bool enabled_ = false;
    bool annotations_enabled_ = true;
    size_t capacity_;
    std::vector<Record> ring_;
    uint64_t next_trace_id_ = 1;
    uint64_t next_span_id_ = 1;
    uint64_t spans_started_ = 0;
    uint64_t spans_dropped_ = 0;
    uint64_t slot_writes_ = 0;
};

}  // namespace lfs::sim
