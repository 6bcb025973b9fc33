#include "src/sim/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "src/sim/metrics.h"
#include "src/sim/simulation.h"

namespace lfs::sim {

Span&
Span::operator=(Span&& other) noexcept
{
    if (this != &other) {
        end();
        tracer_ = other.tracer_;
        index_ = other.index_;
        trace_id_ = other.trace_id_;
        span_id_ = other.span_id_;
        other.tracer_ = nullptr;
    }
    return *this;
}

void
Span::annotate_impl(const char* key, const std::string& value)
{
    if (!tracer_->annotations_enabled()) {
        return;
    }
    if (Tracer::Record* r = tracer_->resolve(index_, span_id_)) {
        r->annotations.emplace_back(key, value);
    }
}

void
Span::annotate_impl(const char* key, const char* value)
{
    if (!tracer_->annotations_enabled()) {
        return;
    }
    if (Tracer::Record* r = tracer_->resolve(index_, span_id_)) {
        r->annotations.emplace_back(key, value);
    }
}

void
Span::annotate_impl(const char* key, int64_t value)
{
    if (!tracer_->annotations_enabled()) {
        return;
    }
    if (Tracer::Record* r = tracer_->resolve(index_, span_id_)) {
        r->annotations.emplace_back(key, std::to_string(value));
    }
}

void
Span::end_impl()
{
    tracer_->end_span(index_, span_id_);
    tracer_ = nullptr;
}

Tracer::Tracer(Simulation& sim, size_t capacity)
    : sim_(sim), capacity_(std::max<size_t>(capacity, 1))
{
}

void
Tracer::set_capacity(size_t capacity)
{
    capacity_ = std::max<size_t>(capacity, 1);
    clear();
}

void
Tracer::clear()
{
    ring_.clear();
    spans_started_ = 0;
    spans_dropped_ = 0;
}

Tracer::Record*
Tracer::resolve(size_t index, uint64_t span_id)
{
    if (index >= ring_.size() || ring_[index].span_id != span_id) {
        return nullptr;  // slot was recycled by the ring
    }
    ++slot_writes_;  // every caller writes the slot it resolves
    return &ring_[index];
}

Span
Tracer::open(const char* component, const char* name, uint64_t trace_id,
             uint64_t parent_id)
{
    size_t index;
    if (ring_.size() < capacity_) {
        index = ring_.size();
        ring_.emplace_back();
    } else {
        index = static_cast<size_t>(spans_started_ % capacity_);
        ++spans_dropped_;
    }
    ++spans_started_;
    ++slot_writes_;
    Record& r = ring_[index];
    uint64_t span_id = next_span_id_++;
    r.trace_id = trace_id;
    r.span_id = span_id;
    r.parent_id = parent_id;
    r.component = component;
    r.name = name;
    r.start = sim_.now();
    r.end = -1;
    r.annotations.clear();
    return Span(this, index, trace_id, span_id);
}

void
Tracer::end_span(size_t index, uint64_t span_id)
{
    if (Record* r = resolve(index, span_id)) {
        r->end = sim_.now();
    }
}

size_t
Tracer::heap_bytes() const
{
    size_t bytes = ring_.capacity() * sizeof(Record);
    for (const Record& r : ring_) {
        bytes += r.annotations.capacity() * sizeof(r.annotations[0]);
    }
    return bytes;
}

size_t
Tracer::recorded() const
{
    return ring_.size();
}

std::vector<size_t>
Tracer::ordered_slots() const
{
    std::vector<size_t> order;
    order.reserve(ring_.size());
    if (ring_.size() < capacity_) {
        for (size_t i = 0; i < ring_.size(); ++i) {
            order.push_back(i);
        }
    } else {
        size_t head = static_cast<size_t>(spans_started_ % capacity_);
        for (size_t i = 0; i < capacity_; ++i) {
            order.push_back((head + i) % capacity_);
        }
    }
    return order;
}

std::vector<SpanView>
Tracer::snapshot() const
{
    std::vector<SpanView> views;
    views.reserve(ring_.size());
    for (size_t i : ordered_slots()) {
        const Record& r = ring_[i];
        if (r.span_id == 0) {
            continue;
        }
        views.push_back(SpanView{r.trace_id, r.span_id, r.parent_id,
                                 r.component, r.name, r.start, r.end,
                                 &r.annotations});
    }
    return views;
}

std::vector<SpanView>
Tracer::spans_for_trace(uint64_t trace_id, SimTime not_before) const
{
    std::vector<SpanView> views;
    // Newest-first walk: slot of span n-1, n-2, ... in creation order.
    size_t held = ring_.size();
    for (size_t back = 0; back < held; ++back) {
        size_t i;
        if (held < capacity_) {
            i = held - 1 - back;
        } else {
            i = static_cast<size_t>((spans_started_ - 1 - back) % capacity_);
        }
        const Record& r = ring_[i];
        if (r.span_id == 0) {
            continue;
        }
        if (r.start < not_before) {
            break;  // everything older predates the request
        }
        if (r.trace_id != trace_id) {
            continue;
        }
        views.push_back(SpanView{r.trace_id, r.span_id, r.parent_id,
                                 r.component, r.name, r.start, r.end,
                                 &r.annotations});
    }
    std::reverse(views.begin(), views.end());
    return views;
}

std::string
Tracer::chrome_trace_events(int pid) const
{
    std::string out;
    char buf[256];
    bool first = true;
    for (size_t i : ordered_slots()) {
        const Record& r = ring_[i];
        if (r.span_id == 0) {
            continue;
        }
        if (!first) {
            out += ",\n";
        }
        first = false;
        // Complete ("X") events; tid = trace id so each request gets its
        // own track and spans nest by time containment in Perfetto.
        SimTime dur = r.end >= r.start ? r.end - r.start : 0;
        out += "{\"name\":" + json_quote(r.name) +
               ",\"cat\":" + json_quote(r.component) + ",\"ph\":\"X\"";
        std::snprintf(buf, sizeof(buf),
                      ",\"ts\":%lld,\"dur\":%lld,\"pid\":%d,\"tid\":%llu",
                      static_cast<long long>(r.start),
                      static_cast<long long>(dur), pid,
                      static_cast<unsigned long long>(r.trace_id));
        out += buf;
        std::snprintf(buf, sizeof(buf),
                      ",\"args\":{\"span\":\"%llu\",\"parent\":\"%llu\"",
                      static_cast<unsigned long long>(r.span_id),
                      static_cast<unsigned long long>(r.parent_id));
        out += buf;
        if (r.end < r.start) {
            out += ",\"unfinished\":\"1\"";
        }
        for (const auto& [key, value] : r.annotations) {
            out += ",";
            out += json_quote(key);
            out += ":";
            out += json_quote(value);
        }
        out += "}}";
    }
    return out;
}

std::string
Tracer::chrome_trace_json() const
{
    return "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n" +
           chrome_trace_events(/*pid=*/1) + "\n]}\n";
}

bool
Tracer::write_chrome_trace(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::string doc = chrome_trace_json();
    size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
    return std::fclose(f) == 0 && written == doc.size();
}

std::string
Tracer::flame_summary() const
{
    struct Agg {
        uint64_t count = 0;
        SimTime total = 0;
        SimTime max = 0;
    };
    // Keyed by "component/name"; std::map keeps the tie order stable.
    std::map<std::string, Agg> aggs;
    for (size_t i : ordered_slots()) {
        const Record& r = ring_[i];
        if (r.span_id == 0) {
            continue;
        }
        SimTime dur = r.end >= r.start ? r.end - r.start : 0;
        Agg& a = aggs[std::string(r.component) + "/" + r.name];
        ++a.count;
        a.total += dur;
        a.max = std::max(a.max, dur);
    }
    std::vector<std::pair<std::string, Agg>> rows(aggs.begin(), aggs.end());
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) {
                         return a.second.total > b.second.total;
                     });
    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%-32s %10s %14s %12s %12s\n",
                  "component/span", "count", "total_ms", "mean_us", "max_us");
    out += buf;
    for (const auto& [key, a] : rows) {
        double mean = a.count ? static_cast<double>(a.total) /
                                    static_cast<double>(a.count)
                              : 0.0;
        std::snprintf(buf, sizeof(buf), "%-32s %10llu %14.2f %12.1f %12lld\n",
                      key.c_str(), static_cast<unsigned long long>(a.count),
                      to_msec(a.total), mean, static_cast<long long>(a.max));
        out += buf;
    }
    return out;
}

}  // namespace lfs::sim
