/**
 * @file
 * Tail-exemplar flight recorder (DESIGN.md §11).
 *
 * A bounded worst-k reservoir that retains the slowest operations per
 * time window together with their full attribution ledger and, when the
 * tracer is enabled, a copy of their span tree. The point: a p999
 * outlier in a bench run can be explained post-hoc — which layer the
 * time went to, and the exact span timeline — without re-running the
 * experiment with full tracing and grepping a 2^18-span ring.
 *
 * Retention policy: within each window only the worst-k ops by latency
 * qualify (a candidate must beat the current k-th worst, so the expected
 * number of span-tree copies decays like k·ln(n) per window); when a
 * window rolls, its survivors move to a bounded archive that drops the
 * oldest windows first. Observation never schedules simulation events,
 * so enabling the recorder cannot change simulated results.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/latency.h"
#include "src/sim/time.h"

namespace lfs::sim {

class Tracer;

/** One span copied out of the tracer ring (component/name are literals). */
struct ExemplarSpan {
    uint64_t span_id = 0;
    uint64_t parent_id = 0;
    const char* component = "";
    const char* name = "";
    SimTime start = 0;
    SimTime end = -1;
};

/** One retained worst-op exemplar. */
struct Exemplar {
    const char* op = "?";     ///< op_name() of the operation
    std::string path;         ///< primary target path
    std::string system;       ///< system label ("lambda-fs", ...)
    SimTime completed = 0;    ///< completion time (sim clock)
    SimTime latency = 0;      ///< end-to-end latency
    bool ok = true;           ///< completed successfully
    uint64_t trace_id = 0;    ///< 0 when the op was not traced
    LatencyLedger ledger;     ///< finalized attribution ledger
    std::vector<ExemplarSpan> spans;  ///< span tree copy (may be empty)
};

struct FlightRecorderConfig {
    /** Worst ops retained per window. */
    int worst_k = 16;
    /** Window length (sim time). */
    SimTime window = sec(30);
};

class FlightRecorder {
  public:
    bool enabled() const { return enabled_; }
    void set_enabled(bool on) { enabled_ = on; }

    FlightRecorderConfig& config() { return config_; }
    const FlightRecorderConfig& config() const { return config_; }

    /**
     * Offer one completed operation. @p now must be the op's completion
     * time (call at completion, not after the sim drains): the span-tree
     * scan is bounded below by now - latency, i.e. the op's start. Cheap
     * rejection when the op does not beat the window's k-th worst;
     * qualifying ops copy their span tree out of @p tracer (nullable) by
     * trace id.
     */
    void observe(SimTime now, const char* op, const std::string& path,
                 const std::string& system, SimTime latency, bool ok,
                 uint64_t trace_id, const LatencyLedger& ledger,
                 const Tracer* tracer);

    /** Exemplars retained so far (archive + current window). */
    size_t retained() const { return archive_.size() + window_.size(); }

    /**
     * All retained exemplars, oldest window first; the current window's
     * survivors last (worst first within each window).
     */
    std::vector<const Exemplar*> exemplars() const;

    /** JSON array of retained exemplars (ledger + span tree inline). */
    std::string to_json() const;

    void clear();

  private:
    void roll();

    bool enabled_ = false;
    FlightRecorderConfig config_;
    SimTime window_start_ = -1;
    std::vector<Exemplar> window_;  ///< sorted by latency, worst first
    std::vector<Exemplar> archive_;
};

}  // namespace lfs::sim
