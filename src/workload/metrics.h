/**
 * @file
 * Per-system measurement collection shared by every file system under
 * test. Workload drivers record each completed operation here; experiment
 * harnesses read the series/histograms back out to print the paper's
 * figures (throughput timelines, latency CDFs, per-op throughput).
 *
 * All storage lives in a sim::MetricsRegistry under labelled names
 * (`workload.completed{system=lambda-fs}`, `workload.latency{op=mkdir,...}`),
 * so the harness's --metrics-out export sees workload results alongside
 * faas/store/coord internals with no extra plumbing. The registry-less
 * default constructor (used by unit tests) binds to a private registry.
 */
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "src/namespace/op.h"
#include "src/sim/latency.h"
#include "src/sim/metrics.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace lfs::workload {

class SystemMetrics {
  public:
    explicit SystemMetrics(sim::SimTime bin_width = sim::sec(1))
        : own_registry_(std::make_unique<sim::MetricsRegistry>())
    {
        bind(*own_registry_, "default", bin_width);
    }

    /**
     * Register this system's metrics into @p registry under
     * `{system=...}` labels. If @p system is already taken (two runs of
     * the same system sharing one registry), a `#2`, `#3`, ... suffix
     * keeps the metric sets distinct.
     */
    SystemMetrics(sim::MetricsRegistry& registry, const std::string& system,
                  sim::SimTime bin_width = sim::sec(1))
    {
        std::string label = system;
        for (int i = 2; registry.contains("workload.completed",
                                          {{"system", label}});
             ++i) {
            label = system + "#" + std::to_string(i);
        }
        bind(registry, label, bin_width);
    }

    SystemMetrics(const SystemMetrics&) = delete;
    SystemMetrics& operator=(const SystemMetrics&) = delete;

    /**
     * Record one finished operation. @p code distinguishes overload
     * outcomes among failures: RESOURCE_EXHAUSTED counts as shed,
     * DEADLINE_EXCEEDED as a deadline miss.
     */
    void
    record(sim::SimTime now, OpType type, sim::SimTime latency, bool ok,
           Code code = Code::kOk)
    {
        if (!ok) {
            failed_->add();
            if (code == Code::kResourceExhausted) {
                shed_->add();
            } else if (code == Code::kDeadlineExceeded) {
                deadline_missed_->add();
            }
            return;
        }
        completed_->add();
        throughput_->add(now, 1.0);
        overall_latency_->record(latency);
        latency_by_type_[static_cast<size_t>(type)]->record(latency);
        if (is_read_op(type)) {
            read_latency_->record(latency);
        } else {
            write_latency_->record(latency);
        }
    }

    /** Record a retry/resubmission event. */
    void record_retry() { retries_->add(); }

    /**
     * Record one finalized attribution ledger. Only segments that saw
     * time are recorded into `attr.segment{system=...,seg=...}` — a
     * typical op touches 4-5 of the 13 segments, and skipping the zero
     * records keeps attribution's hot-path cost inside its 5% budget
     * (each zero record would dirty two cold cache lines). Aggregation
     * stays exact without them: a segment's additive *contribution* is
     * mean(seg) x count(seg) / count(attr.total), and those contributions
     * sum to mean(attr.total) because each op's finalized ledger sums to
     * its end-to-end latency. Segment percentiles are therefore
     * conditional — "when this segment occurs, what does it cost".
     * Histograms are bound lazily on the first call, so runs with
     * attribution off export no attr.* metrics.
     */
    void
    record_attribution(const sim::LatencyLedger& ledger, sim::SimTime total)
    {
        if (attr_total_ == nullptr) {
            attr_total_ =
                &registry_->histogram("attr.total", {{"system", label_}});
            for (size_t i = 0; i < sim::kLatSegCount; ++i) {
                attr_segment_[i] = &registry_->histogram(
                    "attr.segment",
                    {{"system", label_},
                     {"seg",
                      sim::lat_seg_name(static_cast<sim::LatSeg>(i))}});
            }
        }
        attr_total_->record(total);
        for (size_t i = 0; i < sim::kLatSegCount; ++i) {
            sim::SimTime v = ledger.get(static_cast<sim::LatSeg>(i));
            if (v > 0) {
                attr_segment_[i]->record(v);
            }
        }
    }

    /** Per-segment attribution histogram, or nullptr before any record. */
    const sim::Histogram*
    attribution(sim::LatSeg seg) const
    {
        return attr_segment_[static_cast<size_t>(seg)];
    }

    /** End-to-end histogram of attributed ops, or nullptr before any. */
    const sim::Histogram* attribution_total() const { return attr_total_; }

    /** Sample the current NameNode count (for the Fig. 8 right axis). */
    void
    sample_active_nodes(sim::SimTime now, int count)
    {
        active_nodes_->add(now, static_cast<double>(count));
    }

    const sim::TimeSeries& throughput() const { return *throughput_; }
    const sim::TimeSeries& active_nodes() const { return *active_nodes_; }
    const sim::Histogram& overall_latency() const { return *overall_latency_; }
    const sim::Histogram& read_latency() const { return *read_latency_; }
    const sim::Histogram& write_latency() const { return *write_latency_; }
    const sim::Histogram&
    latency(OpType type) const
    {
        return *latency_by_type_[static_cast<size_t>(type)];
    }

    uint64_t completed() const { return completed_->value(); }
    uint64_t failed() const { return failed_->value(); }
    uint64_t retries() const { return retries_->value(); }
    /** Failed ops the system shed at admission (RESOURCE_EXHAUSTED). */
    uint64_t shed() const { return shed_->value(); }
    /** Failed ops that ran out of deadline (DEADLINE_EXCEEDED). */
    uint64_t deadline_missed() const { return deadline_missed_->value(); }

    /** The (possibly uniquified) `system` label this instance registered. */
    const std::string& system_label() const { return label_; }

    /** Mean throughput over [0, now] in ops/sec. */
    double
    average_throughput(sim::SimTime now) const
    {
        return now > 0 ? static_cast<double>(completed_->value()) /
                             sim::to_sec(now)
                       : 0.0;
    }

  private:
    void
    bind(sim::MetricsRegistry& r, const std::string& system,
         sim::SimTime bin_width)
    {
        registry_ = &r;
        label_ = system;
        sim::MetricLabels sys = {{"system", system}};
        completed_ = &r.counter("workload.completed", sys);
        failed_ = &r.counter("workload.failed", sys);
        retries_ = &r.counter("workload.retries", sys);
        shed_ = &r.counter("workload.shed", sys);
        deadline_missed_ = &r.counter("workload.deadline_missed", sys);
        throughput_ = &r.time_series("workload.throughput", bin_width, sys);
        active_nodes_ =
            &r.time_series("workload.active_nodes", bin_width, sys);
        overall_latency_ = &r.histogram("workload.latency", sys);
        read_latency_ = &r.histogram(
            "workload.latency", {{"system", system}, {"class", "read"}});
        write_latency_ = &r.histogram(
            "workload.latency", {{"system", system}, {"class", "write"}});
        for (size_t i = 0; i < latency_by_type_.size(); ++i) {
            latency_by_type_[i] = &r.histogram(
                "workload.latency",
                {{"system", system},
                 {"op", op_name(static_cast<OpType>(i))}});
        }
    }

    // Owned only when default-constructed (unit tests); otherwise the
    // harness-provided registry outlives this object.
    std::unique_ptr<sim::MetricsRegistry> own_registry_;
    sim::MetricsRegistry* registry_ = nullptr;
    std::string label_;
    sim::Counter* completed_ = nullptr;
    sim::Counter* failed_ = nullptr;
    sim::Counter* retries_ = nullptr;
    sim::Counter* shed_ = nullptr;
    sim::Counter* deadline_missed_ = nullptr;
    sim::TimeSeries* throughput_ = nullptr;
    sim::TimeSeries* active_nodes_ = nullptr;
    sim::Histogram* overall_latency_ = nullptr;
    sim::Histogram* read_latency_ = nullptr;
    sim::Histogram* write_latency_ = nullptr;
    std::array<sim::Histogram*, static_cast<size_t>(OpType::kCount)>
        latency_by_type_{};
    // Attribution histograms, bound lazily on first record_attribution().
    sim::Histogram* attr_total_ = nullptr;
    std::array<sim::Histogram*, sim::kLatSegCount> attr_segment_{};
};

}  // namespace lfs::workload
