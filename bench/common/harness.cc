#include "harness.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <unordered_map>

namespace lfs::bench {

namespace {

ObservabilityOptions g_observability;
/** Basename of the running bench binary (for bench-log entries). */
std::string g_bench_name;
/** True in a forked sweep child: artifact writers stay parent-only. */
bool g_sweep_child = false;
/** Chrome-trace pid offset for this process's observed runs. */
int g_trace_pid_base = 0;

/**
 * Fragment count at the current sweep point's start: pids restart from
 * the point's base in the serial path exactly as they do in a forked
 * child (whose fragment vector is empty), so traces are byte-identical
 * at any LFS_SWEEP_JOBS.
 */
size_t g_trace_fragment_floor = 0;
/**
 * Wall-clock start per armed Simulation — arm_observability() starts the
 * timer, observe_run() reports events/sec against it. Keyed by address;
 * an entry is erased when its run is observed.
 */
std::unordered_map<const sim::Simulation*,
                   std::chrono::steady_clock::time_point>
    g_run_started;
// Per-run fragments accumulated by observe_run(); written at exit.
std::vector<std::string> g_trace_fragments;
std::vector<std::string> g_metrics_fragments;
// Per-run perf/attribution summaries for the --bench-log trajectory.
std::vector<std::string> g_bench_log_runs;

void
write_observability_artifacts()
{
    if (g_sweep_child) {
        return;  // the sweep parent writes merged artifacts
    }
    if (!g_observability.trace_out.empty()) {
        std::FILE* f = std::fopen(g_observability.trace_out.c_str(), "w");
        if (f != nullptr) {
            std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
            bool first = true;
            for (const std::string& fragment : g_trace_fragments) {
                if (fragment.empty()) {
                    continue;
                }
                if (!first) {
                    std::fputs(",\n", f);
                }
                first = false;
                std::fputs(fragment.c_str(), f);
            }
            std::fputs("\n]}\n", f);
            std::fclose(f);
            std::printf("wrote trace: %s\n",
                        g_observability.trace_out.c_str());
        } else {
            std::fprintf(stderr, "cannot write trace: %s\n",
                         g_observability.trace_out.c_str());
        }
    }
    if (!g_observability.metrics_out.empty()) {
        std::FILE* f = std::fopen(g_observability.metrics_out.c_str(), "w");
        if (f != nullptr) {
            std::fputs("{\"runs\":[\n", f);
            for (size_t i = 0; i < g_metrics_fragments.size(); ++i) {
                if (i > 0) {
                    std::fputs(",\n", f);
                }
                std::fputs(g_metrics_fragments[i].c_str(), f);
            }
            std::fputs("\n]}\n", f);
            std::fclose(f);
            std::printf("wrote metrics: %s\n",
                        g_observability.metrics_out.c_str());
        } else {
            std::fprintf(stderr, "cannot write metrics: %s\n",
                         g_observability.metrics_out.c_str());
        }
    }
}

/**
 * Append one dated JSON line — the process's runs with their kernel
 * self-profiles and attribution means — to the --bench-log trajectory
 * file. One line per bench invocation keeps the checked-in BENCH_*.json
 * files readable as a time series of the repo's own performance.
 */
void
append_bench_log()
{
    if (g_sweep_child || g_bench_log_runs.empty()) {
        return;
    }
    std::FILE* f = std::fopen(g_observability.bench_log.c_str(), "a");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot append bench log: %s\n",
                     g_observability.bench_log.c_str());
        return;
    }
    char date[32] = "unknown";
    std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
    if (gmtime_r(&now, &tm_utc) != nullptr) {
        std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
    }
    std::fputs("{\"date\":", f);
    std::fputs(sim::json_quote(date).c_str(), f);
    std::fputs(",\"bench\":", f);
    std::fputs(sim::json_quote(g_bench_name).c_str(), f);
    std::fputs(",\"runs\":[", f);
    for (size_t i = 0; i < g_bench_log_runs.size(); ++i) {
        if (i > 0) {
            std::fputs(",", f);
        }
        std::fputs(g_bench_log_runs[i].c_str(), f);
    }
    std::fputs("]}\n", f);
    std::fclose(f);
    std::printf("appended bench log: %s (%zu runs)\n",
                g_observability.bench_log.c_str(), g_bench_log_runs.size());
}

/**
 * Print the per-segment latency attribution table for every system that
 * recorded ledgers into @p sim's registry. Segment histograms hold only
 * the ops where the segment saw time, so mean_ms/p50/p99 are conditional
 * on occurrence; the additive quantity is the *contribution*
 * mean x count / total ops, and because each finalized ledger sums to
 * its op's end-to-end latency, the printed sum of contributions always
 * matches the end-to-end mean exactly.
 */
void
print_attribution_tables(sim::Simulation& sim, const std::string& label)
{
    // system label -> (segment name -> histogram)
    std::map<std::string, std::map<std::string, const sim::Histogram*>>
        by_system;
    std::map<std::string, const sim::Histogram*> totals;
    sim.metrics().for_each_histogram(
        "attr.segment",
        [&](const sim::MetricLabels& labels, const sim::Histogram& h) {
            std::string system, seg;
            for (const auto& [k, v] : labels) {
                if (k == "system") {
                    system = v;
                } else if (k == "seg") {
                    seg = v;
                }
            }
            by_system[system][seg] = &h;
        });
    sim.metrics().for_each_histogram(
        "attr.total",
        [&](const sim::MetricLabels& labels, const sim::Histogram& h) {
            for (const auto& [k, v] : labels) {
                if (k == "system") {
                    totals[v] = &h;
                }
            }
        });
    for (const auto& [system, segs] : by_system) {
        auto total_it = totals.find(system);
        const sim::Histogram* total =
            total_it != totals.end() ? total_it->second : nullptr;
        if (total == nullptr || total->count() == 0) {
            continue;
        }
        double e2e_mean_ms = total->mean() / 1e3;
        std::printf("  [attribution] %s (%s): ops=%llu e2e mean=%.3f ms "
                    "p50=%.3f ms p99=%.3f ms\n",
                    label.c_str(), system.c_str(),
                    static_cast<unsigned long long>(total->count()),
                    e2e_mean_ms, static_cast<double>(total->p50()) / 1e3,
                    static_cast<double>(total->p99()) / 1e3);
        std::printf("    %-18s %10s %10s %10s %10s %7s\n", "segment",
                    "count", "mean_ms", "p50_ms", "p99_ms", "share%");
        double contrib_sum_ms = 0.0;
        double ops = static_cast<double>(total->count());
        // Enum order, not registry (alphabetical) order: the table reads
        // client -> gateway -> NameNode -> store top to bottom.
        for (size_t i = 0; i < sim::kLatSegCount; ++i) {
            const char* name =
                sim::lat_seg_name(static_cast<sim::LatSeg>(i));
            auto it = segs.find(name);
            if (it == segs.end()) {
                continue;
            }
            const sim::Histogram& h = *it->second;
            if (h.count() == 0) {
                continue;  // segment never saw time in this run
            }
            double contrib_ms =
                h.mean() / 1e3 * static_cast<double>(h.count()) / ops;
            contrib_sum_ms += contrib_ms;
            double share =
                e2e_mean_ms > 0.0 ? 100.0 * contrib_ms / e2e_mean_ms : 0.0;
            std::printf("    %-18s %10llu %10.3f %10.3f %10.3f %6.1f%%\n",
                        name, static_cast<unsigned long long>(h.count()),
                        h.mean() / 1e3, static_cast<double>(h.p50()) / 1e3,
                        static_cast<double>(h.p99()) / 1e3, share);
        }
        std::printf("    sum of segment contributions = %.3f ms "
                    "(e2e mean %.3f ms)\n",
                    contrib_sum_ms, e2e_mean_ms);
    }
}

/** JSON object of per-system attribution means for the bench log. */
std::string
attribution_json(sim::Simulation& sim)
{
    std::string out = "{";
    bool first_system = true;
    std::map<std::string, std::string> by_system;
    sim.metrics().for_each_histogram(
        "attr.segment",
        [&](const sim::MetricLabels& labels, const sim::Histogram& h) {
            if (h.count() == 0 || h.max() == 0) {
                return;
            }
            std::string system, seg;
            for (const auto& [k, v] : labels) {
                if (k == "system") {
                    system = v;
                } else if (k == "seg") {
                    seg = v;
                }
            }
            std::string& buf = by_system[system];
            if (!buf.empty()) {
                buf += ",";
            }
            buf += sim::json_quote(seg) + ":" + fmt(h.mean(), 1);
        });
    for (const auto& [system, buf] : by_system) {
        if (!first_system) {
            out += ",";
        }
        first_system = false;
        out += sim::json_quote(system) + ":{" + buf + "}";
    }
    out += "}";
    return out;
}

}  // namespace

void
parse_args(int argc, char** argv)
{
    if (argc > 0 && argv[0] != nullptr) {
        const char* slash = std::strrchr(argv[0], '/');
        g_bench_name = slash != nullptr ? slash + 1 : argv[0];
    }
    if (const char* v = std::getenv("LFS_TRACE_OUT")) {
        g_observability.trace_out = v;
    }
    if (const char* v = std::getenv("LFS_METRICS_OUT")) {
        g_observability.metrics_out = v;
    }
    if (const char* v = std::getenv("LFS_BENCH_LOG")) {
        g_observability.bench_log = v;
    }
    if (const char* v = std::getenv("LFS_ATTRIBUTION")) {
        g_observability.attribution = std::strcmp(v, "0") != 0;
    }
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--trace-out=", 0) == 0) {
            g_observability.trace_out = arg.substr(12);
        } else if (arg.rfind("--metrics-out=", 0) == 0) {
            g_observability.metrics_out = arg.substr(14);
        } else if (arg.rfind("--bench-log=", 0) == 0) {
            g_observability.bench_log = arg.substr(12);
        } else if (arg == "--attribution") {
            g_observability.attribution = true;
        }
    }
    if (!g_observability.trace_out.empty() ||
        !g_observability.metrics_out.empty()) {
        std::atexit(write_observability_artifacts);
    }
    if (!g_observability.bench_log.empty()) {
        std::atexit(append_bench_log);
    }
}

const ObservabilityOptions&
observability()
{
    return g_observability;
}

void
arm_observability(sim::Simulation& sim)
{
    // Keep the earliest start: run_industrial re-arms a Simulation that a
    // ScopedRunObservation already armed at construction.
    g_run_started.emplace(&sim, std::chrono::steady_clock::now());
    if (!g_observability.trace_out.empty()) {
        sim.tracer().set_enabled(true);
    }
    if (g_observability.attribution) {
        // Ledger stamping + per-segment histograms + worst-k reservoir:
        // the cheap accounting stack, gated at <5% overhead by
        // bench_kernel's attribution audit. Exemplar span trees are a
        // tracing feature — they appear when --trace-out also arms the
        // tracer; attribution alone keeps exemplars ledger-only.
        sim.set_attribution(true);
        sim.flight_recorder().set_enabled(true);
    }
}

RunPerf
run_perf(const sim::Simulation& sim)
{
    RunPerf perf;
    perf.events = sim.events_executed();
    perf.peak_backlog = sim.peak_pending();
    auto it = g_run_started.find(&sim);
    if (it != g_run_started.end()) {
        perf.wall_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - it->second)
                                .count();
    }
    if (perf.wall_seconds > 0.0) {
        perf.events_per_sec =
            static_cast<double>(perf.events) / perf.wall_seconds;
    }
    return perf;
}

void
bench_log_entry(const std::string& label, uint64_t events,
                double wall_seconds, double events_per_sec)
{
    if (g_observability.bench_log.empty()) {
        return;
    }
    g_bench_log_runs.push_back(
        "{\"label\":" + sim::json_quote(label) +
        ",\"events\":" + std::to_string(events) +
        ",\"wall_s\":" + fmt(wall_seconds, 4) +
        ",\"events_per_sec\":" + fmt(events_per_sec, 0) + "}");
}

void
observe_run(sim::Simulation& sim, const std::string& label)
{
    RunPerf perf = run_perf(sim);
    g_run_started.erase(&sim);
    std::printf("  [perf] %s: events=%llu wall_s=%.3f events_per_sec=%.0f "
                "peak_backlog=%zu\n",
                label.c_str(), static_cast<unsigned long long>(perf.events),
                perf.wall_seconds, perf.events_per_sec, perf.peak_backlog);
    if (!g_observability.trace_out.empty()) {
        // One pid per captured run keeps runs separable in Perfetto.
        int pid = g_trace_pid_base +
                  static_cast<int>(g_trace_fragments.size() -
                                   g_trace_fragment_floor) +
                  1;
        g_trace_fragments.push_back(sim.tracer().chrome_trace_events(pid));
        std::printf("\n[trace] %s: %llu spans (%llu dropped)\n%s",
                    label.c_str(),
                    static_cast<unsigned long long>(
                        sim.tracer().spans_started()),
                    static_cast<unsigned long long>(
                        sim.tracer().spans_dropped()),
                    sim.tracer().flame_summary().c_str());
    }
    std::string exemplars;
    if (g_observability.attribution) {
        print_attribution_tables(sim, label);
        std::printf("  [flight-recorder] %s: retained=%zu exemplars\n",
                    label.c_str(), sim.flight_recorder().retained());
        exemplars = sim.flight_recorder().to_json();
    }
    if (!g_observability.metrics_out.empty()) {
        g_metrics_fragments.push_back(
            "{\"system\":" + sim::json_quote(label) +
            ",\"perf\":{\"events\":" + std::to_string(perf.events) +
            ",\"wall_s\":" + fmt(perf.wall_seconds, 4) +
            ",\"events_per_sec\":" + fmt(perf.events_per_sec, 0) +
            ",\"peak_event_backlog\":" + std::to_string(perf.peak_backlog) +
            "}," +
            (exemplars.empty() ? std::string()
                               : "\"exemplars\":" + exemplars + ",") +
            "\"data\":" + sim.metrics().to_json(sim.now()) + "}");
    }
    if (!g_observability.bench_log.empty()) {
        std::string entry =
            "{\"label\":" + sim::json_quote(label) +
            ",\"events\":" + std::to_string(perf.events) +
            ",\"wall_s\":" + fmt(perf.wall_seconds, 4) +
            ",\"events_per_sec\":" + fmt(perf.events_per_sec, 0) +
            ",\"peak_event_backlog\":" + std::to_string(perf.peak_backlog);
        if (g_observability.attribution) {
            entry += ",\"attr_mean_us\":" + attribution_json(sim);
        }
        entry += "}";
        g_bench_log_runs.push_back(std::move(entry));
    }
}

double
scale()
{
    return env_double("LFS_BENCH_SCALE", 0.125);
}

int
ops_per_client()
{
    return env_int("LFS_OPS_PER_CLIENT", 128);
}

int
env_int(const char* name, int fallback)
{
    const char* v = std::getenv(name);
    if (v == nullptr || *v == '\0') {
        return fallback;
    }
    errno = 0;
    char* end = nullptr;
    long parsed = std::strtol(v, &end, 10);
    if (end == v || *end != '\0' || errno == ERANGE ||
        parsed < INT_MIN || parsed > INT_MAX) {
        std::fprintf(stderr, "%s: '%s' is not an integer\n", name, v);
        std::exit(2);
    }
    return static_cast<int>(parsed);
}

double
env_double(const char* name, double fallback)
{
    const char* v = std::getenv(name);
    if (v == nullptr || *v == '\0') {
        return fallback;
    }
    errno = 0;
    char* end = nullptr;
    double parsed = std::strtod(v, &end);
    if (end == v || *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr, "%s: '%s' is not a number\n", name, v);
        std::exit(2);
    }
    return parsed;
}

namespace detail {

void
sweep_point_begin(int trace_pid_base)
{
    g_trace_pid_base = trace_pid_base;
    g_trace_fragment_floor = g_trace_fragments.size();
}

void
sweep_child_begin(int trace_pid_base)
{
    g_sweep_child = true;
    g_trace_pid_base = trace_pid_base;
    g_trace_fragment_floor = 0;
    g_trace_fragments.clear();
    g_metrics_fragments.clear();
    g_bench_log_runs.clear();
    g_run_started.clear();
}

HarnessFragments
take_fragments()
{
    HarnessFragments fragments;
    fragments.trace = std::move(g_trace_fragments);
    fragments.metrics = std::move(g_metrics_fragments);
    fragments.bench_log = std::move(g_bench_log_runs);
    g_trace_fragments.clear();
    g_metrics_fragments.clear();
    g_bench_log_runs.clear();
    return fragments;
}

void
absorb_fragments(HarnessFragments fragments)
{
    for (std::string& s : fragments.trace) {
        g_trace_fragments.push_back(std::move(s));
    }
    for (std::string& s : fragments.metrics) {
        g_metrics_fragments.push_back(std::move(s));
    }
    for (std::string& s : fragments.bench_log) {
        g_bench_log_runs.push_back(std::move(s));
    }
}

}  // namespace detail

store::StoreConfig
make_store_config(double s)
{
    store::StoreConfig config;
    // The paper's NDB cluster: 4 data nodes. Capacity (slot width) scales
    // with the experiment scale so offered-load/capacity ratios match.
    config.data_node.concurrency =
        std::max(1, static_cast<int>(std::lround(16 * s)));
    return config;
}

core::LambdaFsConfig
make_lambda_config(double total_vcpus, int num_vms, int clients_per_vm,
                   double store_scale)
{
    core::LambdaFsConfig config;
    config.total_vcpus = total_vcpus;
    // Co-scale instance size and deployment count with the pool: the
    // paper uses 6.25-vCPU NameNodes under a 512-vCPU cap; a scaled pool
    // must still fit at least one instance per deployment with headroom
    // (>= 2x) left for auto-scaling.
    config.function.vcpus = std::clamp(total_vcpus / 32.0, 0.5, 6.25);
    int max_deployments = static_cast<int>(
        total_vcpus / config.function.vcpus / 2.0);
    config.num_deployments = std::clamp(max_deployments, 2, 16);
    // Metadata working sets are long-lived; a short idle timeout would
    // churn caches during lulls without saving pay-per-use cost.
    config.function.idle_reclaim = sim::sec(120);
    // §5.2.2: 6-GB NameNodes at the paper's 6.25-vCPU size, scaled with
    // the instance (cost models bill GB-time).
    config.function.memory_gb = 6.0 * config.function.vcpus / 6.25;
    config.num_client_vms = num_vms;
    config.clients_per_vm = clients_per_vm;
    config.store = make_store_config(store_scale);
    return config;
}

core::LambdaFsConfig
make_hops_config(const std::string& label, double total_vcpus, bool cache,
                 int num_vms, int clients_per_vm, double store_scale)
{
    core::LambdaFsConfig config = core::hopsfs_config(total_vcpus, cache);
    config.label = label;
    config.num_client_vms = num_vms;
    config.clients_per_vm = clients_per_vm;
    config.store = make_store_config(store_scale);
    return config;
}

std::unique_ptr<core::LambdaFs>
make_infinicache(sim::Simulation& sim, double total_vcpus, int num_vms,
                 int clients_per_vm)
{
    core::LambdaFsConfig config = core::infinicache_config();
    config.total_vcpus = total_vcpus;
    // Whole functions only: a deployment past the cap could never place
    // its one instance.
    config.num_deployments = std::max(
        1, static_cast<int>(total_vcpus / config.function.vcpus));
    config.num_client_vms = num_vms;
    config.clients_per_vm = clients_per_vm;
    config.store = make_store_config();
    auto fs = std::make_unique<core::LambdaFs>(sim, std::move(config));
    fs->set_max_instances_per_deployment(1);
    return fs;
}

cephfs::CephFsConfig
make_cephfs_config(int num_vms, int clients_per_vm)
{
    cephfs::CephFsConfig config;
    config.num_client_vms = num_vms;
    config.clients_per_vm = clients_per_vm;
    return config;
}

SystemInstance
make_system(const std::string& kind, double total_vcpus, int num_clients)
{
    SystemInstance instance;
    instance.sim = std::make_unique<sim::Simulation>();
    instance.observer = std::make_unique<ScopedRunObservation>(
        *instance.sim, kind + "/clients=" + std::to_string(num_clients));
    int num_vms = 8;
    int clients_per_vm = std::max(1, num_clients / num_vms);
    if (kind == "lambda-fs") {
        auto fs = std::make_unique<core::LambdaFs>(
            *instance.sim,
            make_lambda_config(total_vcpus, num_vms, clients_per_vm));
        instance.tree = build_bench_tree(fs->authoritative_tree());
        instance.dfs = std::move(fs);
    } else if (kind == "hopsfs" || kind == "hopsfs+cache") {
        auto fs = std::make_unique<core::LambdaFs>(
            *instance.sim,
            make_hops_config(kind, total_vcpus, kind == "hopsfs+cache",
                             num_vms, clients_per_vm));
        instance.tree = build_bench_tree(fs->authoritative_tree());
        instance.dfs = std::move(fs);
    } else if (kind == "infinicache") {
        auto fs = make_infinicache(*instance.sim, total_vcpus, num_vms,
                                   clients_per_vm);
        instance.tree = build_bench_tree(fs->authoritative_tree());
        instance.dfs = std::move(fs);
    } else if (kind == "cephfs") {
        auto fs = std::make_unique<cephfs::CephFs>(
            *instance.sim, make_cephfs_config(num_vms, clients_per_vm));
        instance.tree = build_bench_tree(fs->authoritative_tree());
        instance.dfs = std::move(fs);
    } else {
        std::fprintf(stderr, "unknown system kind: %s\n", kind.c_str());
        std::abort();
    }
    return instance;
}

std::vector<std::string>
microbench_systems()
{
    return {"lambda-fs", "hopsfs", "hopsfs+cache", "infinicache", "cephfs"};
}

std::vector<OpType>
microbench_ops()
{
    return {OpType::kReadFile, OpType::kLs, OpType::kStat,
            OpType::kCreateFile, OpType::kMkdir};
}

namespace {

/**
 * Report the slab bulk-load rate of a just-built bench tree. The key is
 * inodes_per_sec (not events_per_sec) so perf_smoke's event-rate floor
 * regex never matches a build line.
 */
void
report_tree_build(const ns::NamespaceTree& tree,
                  std::chrono::steady_clock::time_point t0)
{
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    size_t inodes = tree.inode_count();
    std::printf("  [perf] tree_build: inodes=%zu wall_s=%.3f "
                "inodes_per_sec=%.0f\n",
                inodes, wall,
                wall > 0.0 ? static_cast<double>(inodes) / wall : 0.0);
}

}  // namespace

ns::BuiltTree
build_bench_tree(ns::NamespaceTree& tree)
{
    ns::TreeSpec spec;
    spec.root = "/bench";
    spec.depth = 4;
    spec.fanout = 8;
    spec.files_per_dir = 2;  // 4681 dirs, ~9.4k files
    auto t0 = std::chrono::steady_clock::now();
    ns::BuiltTree out =
        ns::build_balanced_tree(tree, spec, ns::UserContext{}, 0);
    report_tree_build(tree, t0);
    return out;
}

ns::BuiltTree
build_scaled_tree(ns::NamespaceTree& tree, double s)
{
    ns::TreeSpec spec;
    spec.root = "/bench";
    spec.depth = 3;
    spec.fanout = 8;
    spec.files_per_dir = std::max(
        4, static_cast<int>(std::lround(48 * s)));
    auto t0 = std::chrono::steady_clock::now();
    ns::BuiltTree out =
        ns::build_balanced_tree(tree, spec, ns::UserContext{}, 0);
    report_tree_build(tree, t0);
    return out;
}

IndustrialRun
run_industrial(sim::Simulation& sim, workload::Dfs& dfs, ns::BuiltTree tree,
               workload::SpotifyConfig config, sim::SimTime warmup)
{
    IndustrialRun run;
    run.system = dfs.name();
    arm_observability(sim);
    sim.run_until(sim.now() + warmup);

    workload::SpotifyWorkload workload(sim, dfs, std::move(tree), config);
    sim::SimTime begin = sim.now();
    workload.start();

    // Per-second sampling of cost (native + simplified pricing).
    double prev_cost = dfs.cost_so_far();
    double prev_simplified = dfs.simplified_cost_so_far();
    sim::SimTime end = begin + config.duration;
    while (sim.now() < end) {
        sim.run_until(sim.now() + sim::sec(1));
        double cost = dfs.cost_so_far();
        double simplified = dfs.simplified_cost_so_far();
        run.cost_per_s.push_back(cost - prev_cost);
        run.simplified_cost_per_s.push_back(simplified - prev_simplified);
        prev_cost = cost;
        prev_simplified = simplified;
    }
    // Drain the backlog (a struggling system may finish late); cap the
    // drain so a hopeless configuration still terminates.
    sim::SimTime drain_deadline = sim.now() + config.duration * 2;
    while (!workload.finished() && sim.now() < drain_deadline) {
        if (!sim.step()) {
            break;
        }
    }

    const workload::SystemMetrics& metrics = dfs.metrics();
    run.metrics = &metrics;
    size_t seconds = static_cast<size_t>(config.duration / sim::sec(1));
    size_t first_bin = static_cast<size_t>(begin / sim::sec(1));
    for (size_t i = 0; i < seconds; ++i) {
        run.throughput.push_back(metrics.throughput().rate_at(first_bin + i));
        run.name_nodes.push_back(
            metrics.active_nodes().mean_at(first_bin + i));
        run.peak_throughput =
            std::max(run.peak_throughput, run.throughput.back());
    }
    run.completed = static_cast<int64_t>(metrics.completed());
    run.offered = workload.offered();
    // Average over the measured window only: a system that "fell behind"
    // and drained its backlog afterwards must not get credit for it.
    double window_total = 0.0;
    for (double v : run.throughput) {
        window_total += v;
    }
    run.avg_throughput = window_total / sim::to_sec(config.duration);
    run.avg_latency_ms = metrics.overall_latency().mean() / 1e3;
    run.read_latency_ms = metrics.read_latency().mean() / 1e3;
    run.write_latency_ms = metrics.write_latency().mean() / 1e3;
    run.total_cost = dfs.cost_so_far();
    run.total_simplified_cost = dfs.simplified_cost_so_far();
    run.ops_shed = static_cast<int64_t>(metrics.shed());
    run.ops_deadline_missed = static_cast<int64_t>(metrics.deadline_missed());
    run.degradation = dfs.degradation();
    print_degradation_summary(run);
    observe_run(sim, dfs.name());
    return run;
}

void
print_degradation_summary(const IndustrialRun& run, bool always)
{
    const workload::DegradationStats& d = run.degradation;
    uint64_t activity = static_cast<uint64_t>(run.ops_shed) +
                        static_cast<uint64_t>(run.ops_deadline_missed) +
                        d.gateway_shed + d.store_shed +
                        d.breaker_open_events + d.breaker_fast_failures +
                        d.retries_denied + d.deadline_giveups;
    if (activity == 0 && !always) {
        return;  // keep baseline output unchanged when control is off
    }
    int64_t admitted = run.offered - run.ops_shed;
    int64_t in_deadline = run.completed;
    std::printf("  [degradation] %s\n", run.system.c_str());
    std::printf("    offered=%lld admitted=%lld completed-in-deadline=%lld "
                "shed=%lld deadline-missed=%lld\n",
                static_cast<long long>(run.offered),
                static_cast<long long>(admitted),
                static_cast<long long>(in_deadline),
                static_cast<long long>(run.ops_shed),
                static_cast<long long>(run.ops_deadline_missed));
    std::printf("    gateway-shed=%llu store-shed=%llu breaker-opens=%llu "
                "breaker-fast-fail=%llu retries-denied=%llu "
                "deadline-giveups=%llu\n",
                static_cast<unsigned long long>(d.gateway_shed),
                static_cast<unsigned long long>(d.store_shed),
                static_cast<unsigned long long>(d.breaker_open_events),
                static_cast<unsigned long long>(d.breaker_fast_failures),
                static_cast<unsigned long long>(d.retries_denied),
                static_cast<unsigned long long>(d.deadline_giveups));
}

void
print_banner(const char* experiment, const char* title,
             const std::string& scale_line)
{
    std::printf("\n");
    std::printf("================================================================================\n");
    std::printf("%s — %s\n", experiment, title);
    if (!scale_line.empty()) {
        std::printf("  %s (see EXPERIMENTS.md for the scaling rules)\n",
                    scale_line.c_str());
    } else {
        std::printf("  scale=%.3g ops/client=%d (see EXPERIMENTS.md for the scaling rules)\n",
                    scale(), ops_per_client());
    }
    std::printf("================================================================================\n");
}

void
print_check(const char* claim, const std::string& measured)
{
    std::printf("  PAPER: %-58s | MEASURED: %s\n", claim, measured.c_str());
}

void
print_short_cells_check(const std::map<std::string, int>& short_cells)
{
    std::string counts = "short cells:";
    for (const std::string& system : microbench_systems()) {
        auto it = short_cells.find(system);
        counts += " " + system + "=" +
                  std::to_string(it == short_cells.end() ? 0 : it->second);
    }
    print_check("every cell completes clients x ops_per_client ops", counts);
}

std::string
fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

}  // namespace lfs::bench
