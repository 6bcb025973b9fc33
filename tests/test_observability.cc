/**
 * @file
 * Observability stack tests: the span tracer (nesting, determinism,
 * ring-buffer wrap, zero-overhead-when-disabled), the metrics registry
 * (label normalization, identity, callback gauges, JSON export), and the
 * stats additions riding along (empty-histogram percentiles, partial-bin
 * time-series rates).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/lambda_fs.h"
#include "src/namespace/tree_builder.h"
#include "src/sim/metrics.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"
#include "src/workload/microbench.h"

namespace lfs {
namespace {

using sim::Histogram;
using sim::MetricsRegistry;
using sim::Simulation;
using sim::SpanView;
using sim::TimeSeries;
using sim::Tracer;

// ----------------------------------------------------------------------
// Tracer unit tests
// ----------------------------------------------------------------------

TEST(Tracer, DisabledByDefaultAndZeroOverhead)
{
    Simulation sim;
    Tracer& tracer = sim.tracer();
    EXPECT_FALSE(tracer.enabled());

    sim::Span span = tracer.start_trace("client", "op");
    EXPECT_FALSE(span.active());
    span.annotate("path", "/a/b");  // must be a harmless no-op
    span.end();

    EXPECT_EQ(tracer.spans_started(), 0u);
    EXPECT_EQ(tracer.recorded(), 0u);
    EXPECT_EQ(tracer.chrome_trace_events(1), "");
}

TEST(Tracer, RecordsNestedSpansWithParentLinks)
{
    Simulation sim;
    Tracer& tracer = sim.tracer();
    tracer.set_enabled(true);

    sim::Span root = tracer.start_trace("client", "create");
    sim::Span mid = tracer.start_span("faas", "exec", root.context());
    sim::Span leaf = tracer.start_span("store", "write_txn", mid.context());
    leaf.annotate("rows", static_cast<int64_t>(3));
    leaf.end();
    mid.end();
    root.end();

    std::vector<SpanView> spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 3u);
    // Oldest first: root, mid, leaf.
    EXPECT_EQ(spans[0].parent_id, 0u);
    EXPECT_EQ(spans[1].parent_id, spans[0].span_id);
    EXPECT_EQ(spans[2].parent_id, spans[1].span_id);
    // All three share the root's trace id.
    EXPECT_EQ(spans[1].trace_id, spans[0].trace_id);
    EXPECT_EQ(spans[2].trace_id, spans[0].trace_id);
    EXPECT_STREQ(spans[2].component, "store");
    ASSERT_EQ(spans[2].annotations->size(), 1u);
    EXPECT_STREQ(spans[2].annotations->at(0).first, "rows");
    EXPECT_EQ(spans[2].annotations->at(0).second, "3");
}

TEST(Tracer, ZeroParentContextStartsFreshRootTrace)
{
    Simulation sim;
    sim.tracer().set_enabled(true);
    // An untraced request (trace_id 0 in its Op) reaching a lower layer
    // must begin a new root trace rather than parenting to span 0.
    sim::Span span = sim.tracer().start_span("store", "read_txn", {});
    span.end();
    std::vector<SpanView> spans = sim.tracer().snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_NE(spans[0].trace_id, 0u);
    EXPECT_EQ(spans[0].parent_id, 0u);
}

TEST(Tracer, RingWrapDropsOldestAndCountsDrops)
{
    Simulation sim;
    Tracer& tracer = sim.tracer();
    tracer.set_capacity(4);
    tracer.set_enabled(true);

    std::vector<uint64_t> ids;
    for (int i = 0; i < 7; ++i) {
        sim::Span span = tracer.start_trace("t", "s");
        ids.push_back(span.context().trace_id);
        span.end();
    }
    EXPECT_EQ(tracer.spans_started(), 7u);
    EXPECT_EQ(tracer.spans_dropped(), 3u);
    EXPECT_EQ(tracer.recorded(), 4u);

    std::vector<SpanView> spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 4u);
    // The survivors are the four newest, oldest first.
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(spans[i].trace_id, ids[3 + i]);
    }
}

TEST(Tracer, StaleHandleCannotCorruptRecycledSlot)
{
    Simulation sim;
    Tracer& tracer = sim.tracer();
    tracer.set_capacity(2);
    tracer.set_enabled(true);

    sim::Span old_span = tracer.start_trace("t", "old");
    // Wrap the ring so old_span's slot now belongs to a newer span.
    sim::Span a = tracer.start_trace("t", "a");
    sim::Span b = tracer.start_trace("t", "b");
    sim.run_until(sim::msec(5));
    old_span.annotate("k", "v");  // must not touch the recycled slot
    old_span.end();

    for (const SpanView& view : tracer.snapshot()) {
        EXPECT_STRNE(view.name, "old");
        EXPECT_EQ(view.end, -1) << view.name;  // a and b are still open
        EXPECT_TRUE(view.annotations->empty());
    }
}

TEST(Tracer, ChromeTraceJsonIsWellFormed)
{
    Simulation sim;
    sim.tracer().set_enabled(true);
    sim::Span root = sim.tracer().start_trace("client", "op");
    sim::Span child =
        sim.tracer().start_span("store", "txn \"quoted\"\n", root.context());
    child.annotate("path", "/a\\b");
    sim.run_until(sim::msec(2));
    child.end();
    root.end();

    std::string json = sim.tracer().chrome_trace_json();
    // Structural sanity: balanced braces/brackets outside string
    // literals, every quote closed, no raw control characters inside a
    // string literal (whitespace between events is legal JSON).
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (char c : json) {
        if (in_string) {
            EXPECT_GE(static_cast<unsigned char>(c), 0x20)
                << "raw control char in string";
        }
        if (escaped) {
            escaped = false;
            continue;
        }
        if (in_string) {
            if (c == '\\') {
                escaped = true;
            } else if (c == '"') {
                in_string = false;
            }
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            --depth;
            EXPECT_GE(depth, 0);
        }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

// ----------------------------------------------------------------------
// Metrics registry
// ----------------------------------------------------------------------

TEST(MetricsRegistry, SameKeyReturnsSameObject)
{
    MetricsRegistry registry;
    sim::Counter& a = registry.counter("faas.cold_starts", {{"d", "NN1"}});
    sim::Counter& b = registry.counter("faas.cold_starts", {{"d", "NN1"}});
    EXPECT_EQ(&a, &b);
    sim::Counter& c = registry.counter("faas.cold_starts", {{"d", "NN2"}});
    EXPECT_NE(&a, &c);
    EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistry, LabelOrderIsNormalized)
{
    MetricsRegistry registry;
    sim::Gauge& a = registry.gauge("g", {{"x", "1"}, {"a", "2"}});
    sim::Gauge& b = registry.gauge("g", {{"a", "2"}, {"x", "1"}});
    EXPECT_EQ(&a, &b);
    EXPECT_TRUE(registry.contains("g", {{"x", "1"}, {"a", "2"}}));
    EXPECT_TRUE(registry.contains("g", {{"a", "2"}, {"x", "1"}}));
    EXPECT_FALSE(registry.contains("g"));
}

TEST(MetricsRegistry, CallbackGaugesEvaluateAtExportAndDeregister)
{
    MetricsRegistry registry;
    int live = 3;
    int owner_tag = 0;
    registry.register_callback_gauge("faas.live", {}, [&] {
        return static_cast<double>(live);
    }, &owner_tag);

    std::string json = registry.to_json(0);
    EXPECT_NE(json.find("\"faas.live\""), std::string::npos);
    EXPECT_NE(json.find("3"), std::string::npos);

    live = 7;
    EXPECT_NE(registry.to_json(0).find("7"), std::string::npos);

    registry.remove_owner(&owner_tag);
    // The entry survives but must no longer call the dangling lambda.
    EXPECT_EQ(registry.to_json(0).find("7"), std::string::npos);
}

TEST(MetricsRegistry, JsonExportIsSortedAndComplete)
{
    MetricsRegistry registry;
    registry.counter("b.count").add(2);
    registry.counter("a.count").add(1);
    registry.histogram("lat", {{"system", "x"}}).record(100);
    registry.time_series("tput", sim::sec(1)).add(sim::msec(500), 5.0);

    std::string json = registry.to_json(sim::msec(500));
    size_t pos_a = json.find("\"a.count\"");
    size_t pos_b = json.find("\"b.count\"");
    ASSERT_NE(pos_a, std::string::npos);
    ASSERT_NE(pos_b, std::string::npos);
    EXPECT_LT(pos_a, pos_b);
    EXPECT_NE(json.find("\"name\":\"lat\""), std::string::npos);
    EXPECT_NE(json.find("\"labels\":{\"system\":\"x\"}"), std::string::npos);
    EXPECT_NE(json.find("\"p999\""), std::string::npos);
    EXPECT_NE(json.find("\"bin_width_us\""), std::string::npos);
}

TEST(MetricsRegistry, JsonQuoteEscapes)
{
    EXPECT_EQ(sim::json_quote("plain"), "\"plain\"");
    EXPECT_EQ(sim::json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(sim::json_quote("line\nbreak"), "\"line\\nbreak\"");
}

// ----------------------------------------------------------------------
// Stats satellites: percentiles and partial-bin rates
// ----------------------------------------------------------------------

TEST(HistogramPercentiles, EmptyHistogramReturnsZero)
{
    Histogram h;
    EXPECT_EQ(h.percentile(50.0), 0);
    EXPECT_EQ(h.p50(), 0);
    EXPECT_EQ(h.p95(), 0);
    EXPECT_EQ(h.p999(), 0);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.max(), 0);
}

TEST(HistogramPercentiles, P95AndP999OrderAndApproximate)
{
    Histogram h;
    for (int i = 1; i <= 1000; ++i) {
        h.record(i);
    }
    EXPECT_LE(h.p50(), h.p95());
    EXPECT_LE(h.p95(), h.p99());
    EXPECT_LE(h.p99(), h.p999());
    // Log-linear buckets guarantee ~3% relative error.
    EXPECT_NEAR(static_cast<double>(h.p95()), 950.0, 950.0 * 0.05);
    EXPECT_NEAR(static_cast<double>(h.p999()), 999.0, 999.0 * 0.05);
}

TEST(TimeSeriesRate, PartialTrailingBinClampsToElapsedTime)
{
    TimeSeries series(sim::sec(1));
    series.add(sim::msec(100), 5.0);

    // Full-bin divisor: 5 ops over a 1 s bin.
    EXPECT_DOUBLE_EQ(series.rate_at(0), 5.0);
    // Only 100 ms of the bin has elapsed: 5 ops / 0.1 s.
    EXPECT_DOUBLE_EQ(series.rate_at(0, sim::msec(100)), 50.0);
    // Once now passes the bin end, the clamped form matches the full bin.
    EXPECT_DOUBLE_EQ(series.rate_at(0, sim::sec(2)), 5.0);
    EXPECT_DOUBLE_EQ(series.rate_at(0, sim::sec(1)), 5.0);
    // No time elapsed inside the bin (or now precedes it): no rate.
    EXPECT_DOUBLE_EQ(series.rate_at(0, 0), 0.0);

    series.add(sim::msec(2500), 4.0);
    // The trailing bin opened at t=2000ms; 750ms of it has elapsed.
    EXPECT_DOUBLE_EQ(series.rate_at(2, sim::msec(2750)), 4.0 / 0.75);
    // A bin before the trailing one keeps its full-width rate.
    EXPECT_DOUBLE_EQ(series.rate_at(0, sim::msec(2750)), 5.0);
}

TEST(TimeSeriesRate, ToJsonEmitsPerBinObjects)
{
    TimeSeries series(sim::sec(1));
    series.add(sim::msec(500), 2.0);
    series.add(sim::msec(1500), 3.0);
    std::string json = series.to_json(sim::msec(1500));
    EXPECT_NE(json.find("\"t_us\":0"), std::string::npos);
    EXPECT_NE(json.find("\"t_us\":1000000"), std::string::npos);
    EXPECT_NE(json.find("\"sum\":"), std::string::npos);
    EXPECT_NE(json.find("\"count\":"), std::string::npos);
    EXPECT_NE(json.find("\"rate\":"), std::string::npos);
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
}

// ----------------------------------------------------------------------
// End-to-end: traced λFS run
// ----------------------------------------------------------------------

struct TracedRun {
    std::string trace_json;
    std::string metrics_json;
    uint64_t spans = 0;
    uint64_t slot_writes = 0;
    size_t tracer_heap_bytes = 0;
    double ops_per_sec = 0.0;
    int64_t completed = 0;
};

TracedRun
run_traced_lambda(bool tracing)
{
    Simulation sim;
    sim.tracer().set_enabled(tracing);
    core::LambdaFsConfig config;
    config.total_vcpus = 16.0;
    config.function.vcpus = 4.0;
    config.num_deployments = 2;
    config.num_client_vms = 1;
    config.clients_per_vm = 8;
    core::LambdaFs fs(sim, config);

    ns::TreeSpec spec;
    spec.root = "/bench";
    spec.depth = 2;
    spec.fanout = 3;
    spec.files_per_dir = 4;
    ns::BuiltTree tree =
        ns::build_balanced_tree(fs.authoritative_tree(), spec, {}, 0);

    workload::MicrobenchConfig bench;
    bench.op = OpType::kCreateFile;
    bench.num_clients = 8;
    bench.ops_per_client = 25;
    bench.warmup = sim::sec(2);
    bench.seed = 17;
    workload::MicrobenchResult result =
        workload::run_microbench(sim, fs, std::move(tree), bench);

    TracedRun run;
    run.trace_json = sim.tracer().chrome_trace_json();
    run.metrics_json = sim.metrics().to_json(sim.now());
    run.spans = sim.tracer().spans_started();
    run.slot_writes = sim.tracer().slot_writes();
    run.tracer_heap_bytes = sim.tracer().heap_bytes();
    run.ops_per_sec = result.ops_per_sec;
    run.completed = result.completed;
    return run;
}

TEST(TracedLambdaFs, SpansCoverClientFaasNameNodeAndStore)
{
    Simulation sim;
    sim.tracer().set_enabled(true);
    core::LambdaFsConfig config;
    config.total_vcpus = 16.0;
    config.function.vcpus = 4.0;
    config.num_deployments = 2;
    config.num_client_vms = 1;
    config.clients_per_vm = 4;
    core::LambdaFs fs(sim, config);

    ns::TreeSpec spec;
    spec.root = "/bench";
    spec.depth = 2;
    spec.fanout = 3;
    spec.files_per_dir = 4;
    ns::BuiltTree tree =
        ns::build_balanced_tree(fs.authoritative_tree(), spec, {}, 0);

    workload::MicrobenchConfig bench;
    bench.op = OpType::kCreateFile;  // writes exercise store + coherence
    bench.num_clients = 4;
    bench.ops_per_client = 20;
    bench.warmup = sim::sec(2);
    workload::run_microbench(sim, fs, std::move(tree), bench);

    std::set<std::string> components;
    std::map<uint64_t, uint64_t> parent_of;  // span -> parent
    std::map<uint64_t, std::string> component_of;
    for (const SpanView& view : sim.tracer().snapshot()) {
        components.insert(view.component);
        parent_of[view.span_id] = view.parent_id;
        component_of[view.span_id] = view.component;
    }
    EXPECT_TRUE(components.count("client"));
    EXPECT_TRUE(components.count("faas"));
    EXPECT_TRUE(components.count("namenode"));
    EXPECT_TRUE(components.count("store"));
    EXPECT_GE(components.size(), 4u);

    // At least one store span must chain up through the layers to a
    // client root — the cross-component parent links are intact.
    bool chained = false;
    for (const auto& [span_id, component] : component_of) {
        if (component != "store") {
            continue;
        }
        std::set<std::string> path;
        uint64_t cursor = span_id;
        for (int hops = 0; hops < 16 && cursor != 0; ++hops) {
            path.insert(component_of[cursor]);
            cursor = parent_of.count(cursor) ? parent_of[cursor] : 0;
        }
        if (path.count("client") && path.count("faas") &&
            path.count("namenode")) {
            chained = true;
            break;
        }
    }
    EXPECT_TRUE(chained);
}

TEST(TracedLambdaFs, SameSeedProducesByteIdenticalArtifacts)
{
    TracedRun first = run_traced_lambda(true);
    TracedRun second = run_traced_lambda(true);
    EXPECT_GT(first.spans, 0u);
    EXPECT_EQ(first.trace_json, second.trace_json);
    EXPECT_EQ(first.metrics_json, second.metrics_json);
}

TEST(TracedLambdaFs, DisablingTracingChangesNoResults)
{
    TracedRun traced = run_traced_lambda(true);
    TracedRun untraced = run_traced_lambda(false);
    EXPECT_EQ(untraced.spans, 0u);
    EXPECT_EQ(traced.completed, untraced.completed);
    EXPECT_DOUBLE_EQ(traced.ops_per_sec, untraced.ops_per_sec);
}

/**
 * The disabled-tracer gate, without a clock: a λFS run with tracing off
 * opens no span, writes no ring slot and leaves the tracer holding no
 * heap, so every start_span on the op path took its one branch. (The
 * traced twin shows the counters do count.)
 */
TEST(TracedLambdaFs, TracingOffTouchesNoTracerState)
{
    TracedRun untraced = run_traced_lambda(false);
    EXPECT_GT(untraced.completed, 0);
    EXPECT_EQ(untraced.spans, 0u);
    EXPECT_EQ(untraced.slot_writes, 0u);
    EXPECT_EQ(untraced.tracer_heap_bytes, 0u);

    TracedRun traced = run_traced_lambda(true);
    EXPECT_GT(traced.slot_writes, traced.spans);
    EXPECT_GT(traced.tracer_heap_bytes, 0u);
}

}  // namespace
}  // namespace lfs
