// perfbench: run one λFS workload and print one JSON record.
//
//   perfbench --workload read-hot --seed 1 --seconds 20 --trace 0
//
// A run generates kStreams independent op streams from --seed and repeats
// the workload (fresh system each time) round-robin over them until
// --seconds have passed, at least once per stream. Untraced (--trace 0) it
// reports the end-to-end metrics: host metrics as the median over all
// repetitions, simulated metrics as the mean over the streams (a repeat of
// a stream must reproduce them exactly). Traced (--trace 1) it then runs
// each stream once more with attribution on, plus the layer replays on
// stream 0, and reports the per-layer metrics. The record is the last
// line of stdout; the exit code is non-zero when any check failed.
#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench.h"
#include "src/sim/metrics.h"
#include "src/util/hash.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** Independent op streams per run; simulated metrics average over them. */
constexpr size_t kStreams = 3;

/**
 * Set-ups timed per run, at least: runs that fit fewer repetitions time
 * extra set-ups, since a ~50 ms set-up varies by a quarter between runs.
 */
constexpr size_t kMinSetups = 10;

/** Plan seed of @p stream: seeds never share a stream. */
uint64_t
stream_seed(uint64_t seed, size_t stream)
{
    return seed * kStreams + stream;
}

struct Metric {
    std::string name;
    std::string unit;
    std::string better;
    double value = 0.0;
    uint64_t samples = 0;
    /** Per-layer only: the end-to-end metric it should move, and where. */
    std::string moves;
    std::string on;
};

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double
per(double n, double d)
{
    return d > 0.0 ? n / d : 0.0;
}

std::vector<Metric>
end_to_end(const std::vector<RepResult>& reps,
           const std::vector<double>& setup, double host_us_per_op)
{
    // Simulated metrics and allocations, which depend only on the seed:
    // mean over the streams (reps 0..kStreams-1).
    SimOutcome mean;
    double cost = 0.0;
    double allocs_per_op = 0.0;
    const auto n_streams = static_cast<double>(kStreams);
    for (size_t i = 0; i < kStreams; ++i) {
        const SimOutcome& s = reps[i].sim;
        allocs_per_op += static_cast<double>(reps[i].window_allocs) /
                         static_cast<double>(s.attempted) / n_streams;
        mean.completed += s.completed;
        mean.reads += s.reads;
        mean.ops_per_s += s.ops_per_s / n_streams;
        mean.p50_ms += s.p50_ms / n_streams;
        mean.p99_ms += s.p99_ms / n_streams;
        mean.read_p99_ms += s.read_p99_ms / n_streams;
        cost += s.cost_usd;
    }
    const uint64_t n = reps.size();
    return {
        {"host_us_per_op", "us", "lower", host_us_per_op, n, "", ""},
        {"allocs_per_op", "count", "lower", allocs_per_op, kStreams, "", ""},
        // The first repetition's: later ones reuse memory the allocator
        // kept from the one before, so their peaks read low.
        {"peak_rss_mb", "MB", "lower", reps.front().system_rss_mb, 1, "",
         ""},
        {"setup_s", "s", "lower", median(setup), setup.size(), "", ""},
        {"sim_ops_per_s", "ops/s", "higher", mean.ops_per_s, mean.completed,
         "", ""},
        {"sim_p50_ms", "ms", "lower", mean.p50_ms, mean.completed, "", ""},
        {"sim_p99_ms", "ms", "lower", mean.p99_ms, mean.completed, "", ""},
        {"sim_read_p99_ms", "ms", "lower", mean.read_p99_ms, mean.reads, "",
         ""},
        {"cost_usd_per_mop", "USD", "lower",
         per(cost, static_cast<double>(mean.completed)) * 1e6,
         mean.completed, "", ""},
    };
}

std::vector<Metric>
per_layer(const SimOutcome& s, const RepResult& traced,
          const ReplayResult& replay, double host_us_per_op,
          double trace_overhead_frac)
{
    const double ops = static_cast<double>(s.attempted);
    const double done = static_cast<double>(s.completed);
    const uint64_t n_ops = s.attempted;
    const uint64_t n_rec = traced.recorded.size();
    auto c = [&](const char* name) {
        auto it = s.counters.find(name);
        return it == s.counters.end() ? 0.0 : it->second;
    };
    auto attr_ms = [&](sim::LatSeg seg) {
        return per(traced.ledger_us[static_cast<size_t>(seg)], done) / 1e3;
    };
    const double gets = c("cache.hits") + c("cache.misses");
    const double gets_per_op = per(gets, ops);
    const double misses_per_op = per(c("cache.misses"), ops);
    const double rounds_per_op = per(c("coord.rounds"), ops);
    const double reads_per_op = per(c("store.reads"), ops);
    const double writes_per_op = per(c("store.writes"), ops);
    // host_share: ns per call (replay) x calls per op (public counters) /
    // host time per op. An estimate: the replay runs the layer alone.
    auto share = [&](double ns_per_op) {
        return per(ns_per_op / 1e3, host_us_per_op);
    };
    using L = sim::LatSeg;
    return {
        {"sim.events_per_op", "count", "lower", per(c("events"), ops), n_ops,
         "host_us_per_op", "read-hot"},
        {"sim.peak_pending", "count", "lower",
         static_cast<double>(s.peak_pending), 1, "peak_rss_mb", "read-hot"},
        {"workload.gen_lag_p99_ms", "ms", "lower", s.gen_lag_p99_ms, n_ops,
         "sim_p99_ms", "spotify-small-cache"},
        {"workload.backlog_peak", "count", "lower",
         static_cast<double>(s.backlog_peak), n_ops, "sim_p99_ms",
         "spotify-small-cache"},
        {"client.tcp_rpcs_per_op", "count", "lower",
         per(c("client.tcp_rpcs"), ops), n_ops, "host_us_per_op",
         "read-hot"},
        {"client.http_rpcs_per_op", "count", "lower",
         per(c("client.http_rpcs"), ops), n_ops, "sim_p99_ms",
         "spotify-small-cache"},
        {"client.resubmits_per_op", "count", "lower",
         per(c("client.resubmits"), ops), n_ops, "sim_p99_ms",
         "spotify-small-cache"},
        {"client.timeouts_per_op", "count", "lower",
         per(c("client.timeouts"), ops), n_ops, "sim_p99_ms",
         "spotify-small-cache"},
        {"attr.client_retry_wait_ms", "ms", "lower",
         attr_ms(L::kClientRetryWait), s.completed, "sim_p99_ms",
         "spotify-small-cache"},
        {"attr.client_backoff_ms", "ms", "lower", attr_ms(L::kClientBackoff),
         s.completed, "sim_p99_ms", "spotify-small-cache"},
        {"attr.net_client_ms", "ms", "lower", attr_ms(L::kNetClient),
         s.completed, "sim_p50_ms", "read-hot"},
        {"attr.net_gateway_ms", "ms", "lower", attr_ms(L::kNetGateway),
         s.completed, "sim_p50_ms", "read-hot"},
        {"attr.net_store_ms", "ms", "lower", attr_ms(L::kNetStore),
         s.completed, "sim_p50_ms", "spotify-small-cache"},
        {"faas.cold_starts", "count", "lower", c("faas.cold_starts"), n_ops,
         "sim_p99_ms", "spotify-small-cache"},
        {"faas.peak_instances", "count", "lower", traced.peak_instances,
         s.completed, "cost_usd_per_mop", "spotify-small-cache"},
        {"faas.gateway_invocations_per_op", "count", "lower",
         per(c("faas.gateway_invocations"), ops), n_ops, "cost_usd_per_mop",
         "spotify-small-cache"},
        {"faas.busy_gb_s_per_kop", "GB-s", "lower",
         per(c("faas.busy_gb_us") / 1e6, ops) * 1e3, n_ops,
         "cost_usd_per_mop", "spotify-small-cache"},
        {"attr.gateway_queue_ms", "ms", "lower", attr_ms(L::kGatewayQueue),
         s.completed, "sim_p99_ms", "spotify-small-cache"},
        {"attr.cold_start_wait_ms", "ms", "lower", attr_ms(L::kColdStartWait),
         s.completed, "sim_p99_ms", "spotify-small-cache"},
        {"faas.invoke_host_us", "us", "lower", replay.invoke_us, n_rec,
         "host_us_per_op", "spotify-small-cache"},
        {"cache.hit_rate", "ratio", "higher", per(c("cache.hits"), gets),
         static_cast<uint64_t>(gets), "sim_read_p99_ms",
         "spotify-small-cache"},
        {"cache.gets_per_op", "count", "lower", gets_per_op, n_ops,
         "host_us_per_op", "read-hot"},
        {"attr.namenode_cpu_ms", "ms", "lower", attr_ms(L::kNameNodeCpu),
         s.completed, "sim_ops_per_s", "read-hot"},
        {"cache.get_ns", "ns", "lower", replay.cache_get_ns, n_rec,
         "host_us_per_op", "read-hot"},
        {"cache.put_chain_ns", "ns", "lower", replay.cache_put_chain_ns,
         n_rec, "host_us_per_op", "spotify-small-cache"},
        {"cache.invalidate_ns", "ns", "lower", replay.cache_invalidate_ns,
         n_rec, "host_us_per_op", "write-churn"},
        {"cache.host_share", "ratio", "lower",
         share(replay.cache_get_ns * gets_per_op +
               replay.cache_put_chain_ns * misses_per_op),
         n_rec, "host_us_per_op", "read-hot"},
        {"partition.lookup_ns", "ns", "lower", replay.partition_lookup_ns,
         n_rec, "host_us_per_op", "read-hot"},
        {"partition.write_targets_ns", "ns", "lower",
         replay.partition_write_targets_ns, n_rec, "host_us_per_op",
         "write-churn"},
        // Lookups per op: client routing + NameNode home check per cache
        // get + two coherence targets per round.
        {"partition.host_share", "ratio", "lower",
         share(replay.partition_lookup_ns *
               (1.0 + gets_per_op + 2.0 * rounds_per_op)),
         n_rec, "host_us_per_op", "read-hot"},
        {"result_cache.round_ns", "ns", "lower",
         replay.result_cache_round_ns, n_rec, "host_us_per_op",
         "write-churn"},
        {"result_cache.allocs_per_round", "count", "lower",
         replay.result_cache_allocs_per_round, n_rec, "allocs_per_op",
         "write-churn"},
        {"coord.rounds_per_op", "count", "lower", rounds_per_op, n_ops,
         "sim_write_p99_ms", "write-churn"},
        {"coord.invs_per_write", "count", "lower",
         per(c("coord.invs"), static_cast<double>(s.writes)), s.writes,
         "sim_write_p99_ms", "write-churn"},
        {"coord.retransmits", "count", "lower", c("coord.retransmits"),
         n_ops, "sim_write_p99_ms", "write-churn"},
        {"attr.coherence_ms", "ms", "lower", attr_ms(L::kCoherence),
         s.completed, "sim_write_p99_ms", "write-churn"},
        {"coord.round_host_us", "us", "lower", replay.coord_round_us, n_rec,
         "host_us_per_op", "write-churn"},
        {"store.reads_per_op", "count", "lower", reads_per_op, n_ops,
         "sim_read_p99_ms", "spotify-small-cache"},
        {"store.writes_per_op", "count", "lower", writes_per_op, n_ops,
         "sim_ops_per_s", "write-churn"},
        {"attr.store_lock_wait_ms", "ms", "lower", attr_ms(L::kStoreLockWait),
         s.completed, "sim_write_p99_ms", "write-churn"},
        {"attr.store_queue_ms", "ms", "lower", attr_ms(L::kStoreQueue),
         s.completed, "sim_read_p99_ms", "spotify-small-cache"},
        {"attr.store_service_ms", "ms", "lower", attr_ms(L::kStoreService),
         s.completed, "sim_ops_per_s", "write-churn"},
        {"store.read_op_host_us", "us", "lower", replay.store_read_op_us,
         n_rec, "host_us_per_op", "spotify-small-cache"},
        {"store.write_op_host_us", "us", "lower", replay.store_write_op_us,
         n_rec, "host_us_per_op", "write-churn"},
        {"store.host_share", "ratio", "lower",
         share(1e3 * (replay.store_read_op_us * reads_per_op +
                      replay.store_write_op_us * writes_per_op)),
         n_rec, "host_us_per_op", "write-churn"},
        {"ns.resolve_ns", "ns", "lower", replay.resolve_ns, n_rec,
         "host_us_per_op", "write-churn"},
        {"ns.mutate_ns", "ns", "lower", replay.mutate_ns, n_rec,
         "host_us_per_op", "write-churn"},
        {"attr.ns_fault_ms", "ms", "lower", attr_ms(L::kNsFault),
         s.completed, "sim_p99_ms", "write-churn"},
        {"trace_overhead_frac", "ratio", "lower", trace_overhead_frac,
         s.completed, "host_us_per_op", "read-hot"},
        {"attr.unattributed_ms", "ms", "lower", attr_ms(L::kUnattributed),
         s.completed, "sim_p50_ms", "read-hot"},
        {"failed_frac", "ratio", "lower",
         per(static_cast<double>(s.failed), ops), n_ops, "sim_ops_per_s",
         "spotify-small-cache"},
        {"sim_write_p99_ms", "ms", "lower", s.write_p99_ms, s.writes,
         "sim_ops_per_s", "write-churn"},
    };
}

void
print_record(const std::string& workload, uint64_t seed, uint64_t hash,
             bool trace, size_t reps, uint64_t attempted, uint64_t failed,
             const std::map<std::string, bool>& checks,
             const std::vector<Metric>& metrics)
{
    std::printf("{\"workload\":%s,\"seed\":%" PRIu64
                ",\"workload_hash\":\"%016" PRIx64
                "\",\"build_type\":%s,\"trace\":%d,\"streams\":%zu"
                ",\"reps\":%zu,\"attempted\":%" PRIu64
                ",\"failed\":%" PRIu64 ",\"checks\":{",
                sim::json_quote(workload).c_str(), seed, hash,
                sim::json_quote(PERFBENCH_BUILD_TYPE).c_str(), trace ? 1 : 0,
                kStreams, reps, attempted, failed);
    bool first = true;
    for (const auto& [name, ok] : checks) {
        std::printf("%s%s:%s", first ? "" : ",", sim::json_quote(name).c_str(),
                    ok ? "true" : "false");
        first = false;
    }
    std::printf("},\"metrics\":[");
    first = true;
    for (const Metric& m : metrics) {
        std::printf("%s{\"name\":%s,\"unit\":%s,\"better\":%s,\"value\":%.17g"
                    ",\"samples\":%" PRIu64,
                    first ? "" : ",", sim::json_quote(m.name).c_str(),
                    sim::json_quote(m.unit).c_str(),
                    sim::json_quote(m.better).c_str(), m.value, m.samples);
        if (!m.moves.empty()) {
            std::printf(",\"moves\":%s,\"on\":%s",
                        sim::json_quote(m.moves).c_str(),
                        sim::json_quote(m.on).c_str());
        }
        std::printf("}");
        first = false;
    }
    std::printf("]}\n");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n  workloads:");
    for (const std::string& name : workload_names()) {
        std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parse_u64(const char* s, uint64_t* out)
{
    char* end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || errno != 0 || s[0] == '-') {
        return false;
    }
    *out = v;
    return true;
}

}  // namespace

int
run(int argc, char** argv)
{
    std::string workload;
    uint64_t seed = 0;
    uint64_t seconds = 0;
    uint64_t trace = 2;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char* flag = argv[i];
        const char* value = argv[i + 1];
        bool ok = true;
        if (std::strcmp(flag, "--workload") == 0) {
            workload = value;
        } else if (std::strcmp(flag, "--seed") == 0) {
            ok = parse_u64(value, &seed);
            have_seed = ok;
        } else if (std::strcmp(flag, "--seconds") == 0) {
            ok = parse_u64(value, &seconds);
        } else if (std::strcmp(flag, "--trace") == 0) {
            ok = parse_u64(value, &trace);
        } else {
            ok = false;
        }
        if (!ok) {
            return usage();
        }
    }
    if (argc % 2 != 1 || !have_seed || seconds == 0 || trace > 1) {
        return usage();
    }
    WorkloadPlan plan;
    if (!make_plan(workload, stream_seed(seed, 0), 1.0, &plan)) {
        return usage();
    }

    // Plans are regenerated per repetition (outside the timed parts) so a
    // run holds one stream in memory at a time.
    const Clock::time_point start = Clock::now();
    std::vector<RepResult> reps;
    uint64_t workload_hash = kFnv1aBasis;
    while (reps.size() < kStreams ||
           std::chrono::duration<double>(Clock::now() - start).count() <
               static_cast<double>(seconds)) {
        const size_t stream = reps.size() % kStreams;
        if (reps.size() > 0) {
            make_plan(workload, stream_seed(seed, stream), 1.0, &plan);
        }
        if (reps.size() < kStreams) {
            workload_hash = fnv1a_mix(
                workload_hash, std::string_view(
                                   reinterpret_cast<const char*>(&plan.hash),
                                   sizeof(plan.hash)));
        }
        reps.push_back(run_rep(plan, false));
    }

    std::map<std::string, bool> checks;
    auto merge_checks = [&checks](const RepResult& r) {
        for (const auto& [name, ok] : r.checks) {
            auto [it, inserted] = checks.emplace(name, ok);
            it->second = it->second && ok;
        }
    };
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool reproduced = true;
    std::vector<double> us_per_op;
    for (size_t i = 0; i < reps.size(); ++i) {
        const RepResult& r = reps[i];
        merge_checks(r);
        attempted += r.sim.attempted;
        failed += r.sim.failed;
        if (i >= kStreams) {
            reproduced = reproduced && r.sim == reps[i - kStreams].sim;
        }
        us_per_op.push_back(r.window_s * 1e6 /
                            static_cast<double>(r.sim.attempted));
    }
    checks["repeats_reproduce_sim_metrics"] = reproduced;
    const double host_us_per_op = median(us_per_op);

    std::vector<Metric> metrics;
    if (trace == 1) {
        // One traced repeat per stream, stream 0 last so its recorded ops
        // feed the replays. The overhead compares medians: one
        // repetition's wall-clock varies by ~10% on a shared host.
        std::vector<double> traced_us_per_op;
        RepResult traced;
        bool match = true;
        for (size_t stream = kStreams; stream-- > 0;) {
            make_plan(workload, stream_seed(seed, stream), 1.0, &plan);
            traced = run_rep(plan, true);
            merge_checks(traced);
            match = match && traced.sim == reps[stream].sim;
            attempted += traced.sim.attempted;
            failed += traced.sim.failed;
            traced_us_per_op.push_back(
                traced.window_s * 1e6 /
                static_cast<double>(traced.sim.attempted));
        }
        checks["traced_sim_metrics_match"] = match;
        ReplayResult replay = run_replays(plan, traced);
        metrics = per_layer(reps.front().sim, traced, replay, host_us_per_op,
                            median(traced_us_per_op) / host_us_per_op - 1.0);
    } else {
        std::vector<double> setup_s;
        for (const RepResult& r : reps) {
            setup_s.push_back(r.setup_s);
        }
        while (setup_s.size() < kMinSetups) {
            setup_s.push_back(time_setup(plan));
        }
        metrics = end_to_end(reps, setup_s, host_us_per_op);
    }
    print_record(workload, seed, workload_hash, trace == 1, reps.size(),
                 attempted, failed, checks, metrics);
    for (const auto& [name, ok] : checks) {
        if (!ok) {
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         name.c_str());
            return 1;
        }
    }
    return 0;
}

}  // namespace perfbench

int
main(int argc, char** argv)
{
    return perfbench::run(argc, argv);
}
