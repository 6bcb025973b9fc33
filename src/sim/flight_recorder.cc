#include "src/sim/flight_recorder.h"

#include <algorithm>

#include "src/sim/metrics.h"
#include "src/sim/trace.h"

namespace lfs::sim {

namespace {

/** Total exemplars kept across windows (oldest dropped first). */
constexpr size_t kMaxExemplars = 256;

}  // namespace

void
FlightRecorder::observe(SimTime now, const char* op, const std::string& path,
                        const std::string& system, SimTime latency, bool ok,
                        uint64_t trace_id, const LatencyLedger& ledger,
                        const Tracer* tracer)
{
    if (!enabled_) {
        return;
    }
    if (window_start_ < 0) {
        window_start_ = now;
    } else if (now >= window_start_ + config_.window) {
        roll();
        window_start_ = now;
    }
    size_t k = static_cast<size_t>(std::max(1, config_.worst_k));
    if (window_.size() >= k && latency <= window_.back().latency) {
        return;  // does not beat the k-th worst — the common cheap path
    }

    Exemplar ex;
    ex.op = op;
    ex.path = path;
    ex.system = system;
    ex.completed = now;
    ex.latency = latency;
    ex.ok = ok;
    ex.trace_id = trace_id;
    ex.ledger = ledger;
    if (tracer != nullptr && trace_id != 0) {
        // The op's spans all start at or after the op itself; the
        // bounded scan keeps admissions O(spans during the op), not
        // O(ring).
        SimTime op_start = std::max<SimTime>(0, now - latency);
        for (const SpanView& v : tracer->spans_for_trace(trace_id, op_start)) {
            ex.spans.push_back(ExemplarSpan{v.span_id, v.parent_id,
                                            v.component, v.name, v.start,
                                            v.end});
        }
    }

    auto pos = std::upper_bound(window_.begin(), window_.end(), latency,
                                [](SimTime lat, const Exemplar& e) {
                                    return lat > e.latency;
                                });
    window_.insert(pos, std::move(ex));
    if (window_.size() > k) {
        window_.pop_back();
    }
}

void
FlightRecorder::roll()
{
    for (Exemplar& ex : window_) {
        archive_.push_back(std::move(ex));
    }
    window_.clear();
    if (archive_.size() > kMaxExemplars) {
        archive_.erase(archive_.begin(),
                       archive_.begin() + static_cast<ptrdiff_t>(
                                              archive_.size() - kMaxExemplars));
    }
}

std::vector<const Exemplar*>
FlightRecorder::exemplars() const
{
    std::vector<const Exemplar*> out;
    out.reserve(retained());
    for (const Exemplar& ex : archive_) {
        out.push_back(&ex);
    }
    for (const Exemplar& ex : window_) {
        out.push_back(&ex);
    }
    return out;
}

std::string
FlightRecorder::to_json() const
{
    std::string out = "[";
    bool first = true;
    for (const Exemplar* ex : exemplars()) {
        if (!first) {
            out += ",\n";
        }
        first = false;
        out += "{\"op\":" + json_quote(ex->op) +
               ",\"path\":" + json_quote(ex->path) +
               ",\"system\":" + json_quote(ex->system) +
               ",\"completed_us\":" + std::to_string(ex->completed) +
               ",\"latency_us\":" + std::to_string(ex->latency) +
               ",\"ok\":" + (ex->ok ? "true" : "false") +
               ",\"trace_id\":" + std::to_string(ex->trace_id);
        out += ",\"ledger\":{";
        bool first_seg = true;
        for (size_t i = 0; i < kLatSegCount; ++i) {
            LatSeg seg = static_cast<LatSeg>(i);
            SimTime v = ex->ledger.get(seg);
            if (v == 0) {
                continue;
            }
            if (!first_seg) {
                out += ",";
            }
            first_seg = false;
            out += json_quote(lat_seg_name(seg)) + ":" + std::to_string(v);
        }
        out += "},\"spans\":[";
        for (size_t i = 0; i < ex->spans.size(); ++i) {
            const ExemplarSpan& s = ex->spans[i];
            if (i > 0) {
                out += ",";
            }
            out += "{\"span_id\":" + std::to_string(s.span_id) +
                   ",\"parent_id\":" + std::to_string(s.parent_id) +
                   ",\"component\":" + json_quote(s.component) +
                   ",\"name\":" + json_quote(s.name) +
                   ",\"start_us\":" + std::to_string(s.start) +
                   ",\"end_us\":" + std::to_string(s.end) + "}";
        }
        out += "]}";
    }
    out += "]";
    return out;
}

void
FlightRecorder::clear()
{
    window_.clear();
    archive_.clear();
    window_start_ = -1;
}

}  // namespace lfs::sim
