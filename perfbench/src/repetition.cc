// One repetition of a workload: build, warm up, run the measured window on
// the simulation thread, then check the outcome. Counters are read only
// through public accessors, as deltas over the measured window.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "perfbench.h"
#include "src/sim/primitives.h"
#include "src/util/path.h"
#include "tests/oracle/lifecycle_oracle.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** Ops kept (with their results) from a traced run for the replays. */
constexpr size_t kRecordedOps = 50000;

/** Class p99s are reported only above this many samples. */
constexpr size_t kMinClassSamples = 1000;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** A "VmRSS:"-style field of /proc/self/status, in MB (-1 if absent). */
double
status_mb(const char* field)
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) {
        return -1.0;
    }
    char line[256];
    double kib = -1.0;
    const size_t n = std::strlen(field);
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, field, n) == 0) {
            kib = std::strtod(line + n, nullptr);
            break;
        }
    }
    std::fclose(f);
    return kib < 0.0 ? -1.0 : kib / 1024.0;
}

/**
 * Reset the process's peak RSS to its current RSS (Linux clear_refs
 * "5"). Returns false when the kernel does not support it.
 */
bool
reset_peak_rss()
{
    std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr) {
        return false;
    }
    const bool written = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && written;
}

/** User-level outcomes count as completed, as in src/workload/. */
bool
counts_as_completed(Code code)
{
    switch (code) {
      case Code::kOk:
      case Code::kNotFound:
      case Code::kAlreadyExists:
      case Code::kFailedPrecondition:
      case Code::kPermissionDenied:
      case Code::kInvalidArgument:
        return true;
      default:
        return false;
    }
}

/** Exact percentile (nearest rank) of @p values; sorts in place. */
double
percentile(std::vector<int64_t>& values, double p)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return static_cast<double>(values[std::max<size_t>(rank, 1) - 1]);
}

/** Public counters of every λFS layer; the window delta is what counts. */
std::map<std::string, double>
snapshot(sim::Simulation& sim, core::LambdaFs& fs)
{
    std::map<std::string, double> s;
    for (size_t i = 0; i < fs.client_count(); ++i) {
        const core::LfsClient& c = fs.lfs_client(i);
        s["client.tcp_rpcs"] += static_cast<double>(c.tcp_rpcs());
        s["client.http_rpcs"] += static_cast<double>(c.http_rpcs());
        s["client.resubmits"] += static_cast<double>(c.resubmissions());
        s["client.timeouts"] += static_cast<double>(c.timeouts());
    }
    faas::Platform& platform = fs.platform();
    s["faas.cold_starts"] = static_cast<double>(platform.total_cold_starts());
    s["faas.gateway_invocations"] =
        static_cast<double>(platform.total_gateway_invocations());
    s["faas.busy_gb_us"] = platform.total_busy_gb_us();
    s["store.reads"] = static_cast<double>(fs.store().total_reads());
    s["store.writes"] = static_cast<double>(fs.store().total_writes());
    s["coord.rounds"] = static_cast<double>(fs.coordinator().rounds());
    s["coord.invs"] = static_cast<double>(fs.coordinator().invs_sent());
    s["coord.retransmits"] =
        static_cast<double>(fs.coordinator().retransmits());
    for (int d = 0; d < platform.deployment_count(); ++d) {
        sim::MetricLabels labels = {{"deployment", std::to_string(d)}};
        if (sim.metrics().contains("cache.hits", labels)) {
            s["cache.hits"] += static_cast<double>(
                sim.metrics().counter("cache.hits", labels).value());
            s["cache.misses"] += static_cast<double>(
                sim.metrics().counter("cache.misses", labels).value());
        }
    }
    s["cost_usd"] = fs.cost_so_far();
    s["events"] = static_cast<double>(sim.events_executed());
    return s;
}

/** What happened to one planned op of the window. */
struct OpRecord {
    Code code = Code::kInternal;  // until the op returns
    sim::SimTime due = 0;
    sim::SimTime issued = 0;
    sim::SimTime finished = 0;
};

/** Per client, in issue order, parallel to WorkloadPlan::window. */
using OpLog = std::vector<std::vector<OpRecord>>;

/** Shared state of one measured window. */
struct Window {
    Window(sim::Simulation& s, core::LambdaFs& f, const WorkloadPlan& p,
           bool t, RepResult& r, OpLog& l)
        : sim(s), fs(f), plan(p), traced(t), out(r), log(l), done(s)
    {
        out.ledger_us.assign(sim::kLatSegCount, 0.0);
    }

    void record(size_t c, size_t i, const Op* op, OpResult result);

    sim::Simulation& sim;
    core::LambdaFs& fs;
    const WorkloadPlan& plan;
    bool traced;
    RepResult& out;
    OpLog& log;
    sim::WaitGroup done;
    sim::SimTime start = 0;
    bool ledgers_sum = true;
};

void
Window::record(size_t c, size_t i, const Op* op, OpResult result)
{
    OpRecord& r = log[c][i];
    r.finished = sim.now();
    r.code = result.status.code();
    if (!traced || !counts_as_completed(r.code)) {
        return;
    }
    // The ledger covers the client call; open-loop lateness before the
    // call is reported separately as workload.gen_lag. It is compared
    // unfinalized: finalize() would book any time no layer stamped as
    // kUnattributed and so always balance.
    if (result.ledger.total() != r.finished - r.issued) {
        ledgers_sum = false;
    }
    for (size_t s = 0; s < sim::kLatSegCount; ++s) {
        out.ledger_us[s] += static_cast<double>(
            result.ledger.get(static_cast<sim::LatSeg>(s)));
    }
    out.peak_instances =
        std::max(out.peak_instances,
                 static_cast<double>(fs.platform().total_alive_instances()));
    if (op != nullptr && out.recorded.size() < kRecordedOps) {
        out.recorded.push_back(RecordedOp{*op, std::move(result)});
    }
}

sim::Task<void>
run_client(Window& w, size_t c)
{
    const std::vector<PlannedOp>& ops = w.plan.window[c];
    for (size_t i = 0; i < ops.size(); ++i) {
        const PlannedOp& p = ops[i];
        OpRecord& r = w.log[c][i];
        r.due = w.sim.now();
        if (w.plan.open_loop) {
            r.due = w.start + p.due;
            if (w.sim.now() < r.due) {
                co_await sim::delay(w.sim, r.due - w.sim.now());
            }
        }
        Op op;
        op.type = p.type;
        op.path = p.path;
        op.dst = p.dst;
        const bool keep = w.traced && w.out.recorded.size() < kRecordedOps;
        Op kept;
        if (keep) {
            kept = op;
        }
        r.issued = w.sim.now();
        OpResult result = co_await w.fs.client(c).execute(std::move(op));
        w.record(c, i, keep ? &kept : nullptr, std::move(result));
    }
    w.done.done();
}

sim::Task<void>
warm_client(core::LambdaFs& fs, size_t c,
            const std::vector<std::string>& paths, size_t first,
            size_t stride, sim::WaitGroup& wg, uint64_t& failures)
{
    for (size_t i = first; i < paths.size(); i += stride) {
        Op op;
        op.type = OpType::kStat;
        op.path = paths[i];
        OpResult result = co_await fs.client(c).execute(std::move(op));
        if (!result.status.ok()) {
            ++failures;
        }
    }
    wg.done();
}

/** Peak number of ops due but not yet issued (open loop). */
uint64_t
backlog_peak(const OpLog& log)
{
    std::vector<std::pair<sim::SimTime, int>> events;
    for (const std::vector<OpRecord>& ops : log) {
        for (const OpRecord& r : ops) {
            if (r.issued > r.due) {
                events.emplace_back(r.due, 1);
                events.emplace_back(r.issued, -1);
            }
        }
    }
    std::sort(events.begin(), events.end());
    int64_t level = 0;
    int64_t peak = 0;
    for (const auto& [t, delta] : events) {
        level += delta;
        peak = std::max(peak, level);
    }
    return static_cast<uint64_t>(peak);
}

/**
 * Replay the acknowledged writes of each client's stream and compare the
 * final tree: acknowledged creates/mkdirs/mv destinations must exist,
 * acknowledged deletes and mv sources must be gone. A path touched by an
 * op without an acknowledgement is skipped (its state is unknowable).
 */
bool
final_tree_matches(const WorkloadPlan& plan, const OpLog& log,
                   const ns::NamespaceTree& tree)
{
    constexpr int8_t kGone = 0;
    constexpr int8_t kExists = 1;
    constexpr int8_t kUnknown = 2;
    std::unordered_map<std::string, int8_t> expect;
    for (size_t c = 0; c < plan.window.size(); ++c) {
        for (size_t i = 0; i < plan.window[c].size(); ++i) {
            const PlannedOp& op = plan.window[c][i];
            if (is_read_op(op.type)) {
                continue;
            }
            const bool acked = log[c][i].code == Code::kOk;
            switch (op.type) {
              case OpType::kCreateFile:
              case OpType::kMkdir:
                expect[op.path] = acked ? kExists : kUnknown;
                break;
              case OpType::kDeleteFile:
                expect[op.path] = acked ? kGone : kUnknown;
                break;
              case OpType::kMv:
                expect[op.path] = acked ? kGone : kUnknown;
                expect[op.dst] = acked ? kExists : kUnknown;
                break;
              default:
                break;
            }
        }
    }
    for (const auto& [p, state] : expect) {
        if (state == kUnknown) {
            continue;
        }
        bool exists = tree.stat(p, ns::UserContext{}).ok();
        if (exists != (state == kExists)) {
            return false;
        }
    }
    return true;
}

/** A built, warmed-up system. */
struct System {
    std::unique_ptr<sim::Simulation> sim;
    std::unique_ptr<core::LambdaFs> fs;
    uint64_t warm_failures = 0;
};

/** Build the system and tree, then warm up: every tree path is stat'ed
 *  once per pass. */
System
set_up(const WorkloadPlan& plan, bool traced)
{
    System system;
    system.sim = std::make_unique<sim::Simulation>();
    sim::Simulation& sim = *system.sim;
    sim.set_attribution(traced);
    system.fs = std::make_unique<core::LambdaFs>(sim, plan.config);
    core::LambdaFs& fs = *system.fs;
    if (plan.max_instances_per_deployment > 0) {
        fs.set_max_instances_per_deployment(plan.max_instances_per_deployment);
    }
    ns::build_balanced_tree(fs.authoritative_tree(), plan.tree,
                            ns::UserContext{}, 0);
    sim::WaitGroup warm(sim);
    size_t clients = fs.client_count();
    // Pass k hands path i to the client one VM (and one slot) over from
    // pass k-1, so later passes reach NameNode instances the earlier ones
    // missed.
    const size_t shift = static_cast<size_t>(plan.config.clients_per_vm) + 1;
    for (int pass = 0; pass < plan.warm_passes; ++pass) {
        for (size_t c = 0; c < clients; ++c) {
            warm.add();
            size_t client =
                (c + shift * static_cast<size_t>(pass)) % clients;
            sim::spawn(warm_client(fs, client, plan.warm_paths, c, clients,
                                   warm, system.warm_failures));
        }
        while (warm.count() > 0 && sim.step()) {
        }
    }
    sim.run_until(sim.now() + sim::sec(1));
    return system;
}

}  // namespace

RepResult
run_rep(const WorkloadPlan& plan, bool traced)
{
    RepResult out;

    // The system's own peak RSS: with the plan and the per-op records
    // already allocated and touched, the high-water mark is reset here and
    // read before the system is torn down.
    OpLog log(plan.window.size());
    for (size_t c = 0; c < plan.window.size(); ++c) {
        log[c].assign(plan.window[c].size(), OpRecord{});
    }
    const bool rss_reset = reset_peak_rss();
    const double rss_base_mb = status_mb("VmRSS:");

    const Clock::time_point setup_start = Clock::now();
    System system = set_up(plan, traced);
    sim::Simulation* sim = system.sim.get();
    core::LambdaFs* fs = system.fs.get();
    out.setup_s = seconds_since(setup_start);

    // Measured window.
    Window w(*sim, *fs, plan, traced, out, log);
    const std::map<std::string, double> before = snapshot(*sim, *fs);
    const uint64_t allocs_before = allocations();
    const Clock::time_point window_start = Clock::now();
    w.start = sim->now();
    for (size_t c = 0; c < plan.window.size(); ++c) {
        w.done.add();
        sim::spawn(run_client(w, c));
    }
    while (w.done.count() > 0 && sim->step()) {
    }
    out.window_s = seconds_since(window_start);
    out.window_allocs = allocations() - allocs_before;
    const std::map<std::string, double> after = snapshot(*sim, *fs);
    const double rss_peak_mb = status_mb("VmHWM:");
    out.checks["peak_rss_measured"] =
        rss_reset && rss_base_mb > 0.0 && rss_peak_mb > 0.0;
    out.system_rss_mb = rss_peak_mb - rss_base_mb;

    SimOutcome& s = out.sim;
    for (const auto& [name, value] : after) {
        s.counters[name] = value - before.at(name);
    }
    s.attempted = plan.op_count();
    s.peak_pending = sim->peak_pending();
    s.cost_usd = s.counters["cost_usd"];
    std::vector<int64_t> latency;
    std::vector<int64_t> read_latency;
    std::vector<int64_t> write_latency;
    std::vector<int64_t> lag;
    sim::SimTime last_done = w.start;
    uint64_t not_ok = 0;
    for (size_t c = 0; c < log.size(); ++c) {
        for (size_t i = 0; i < log[c].size(); ++i) {
            const OpRecord& r = log[c][i];
            // The workloads are built so that every op succeeds: a failed
            // op (timeout, shed, ...) fails the run just as a user-level
            // error does.
            not_ok += r.code != Code::kOk;
            lag.push_back(r.issued - r.due);
            if (!counts_as_completed(r.code)) {
                ++s.failed;
                continue;
            }
            ++s.completed;
            last_done = std::max(last_done, r.finished);
            const int64_t l = r.finished - r.due;
            latency.push_back(l);
            const bool read = is_read_op(plan.window[c][i].type);
            (read ? read_latency : write_latency).push_back(l);
        }
    }
    s.reads = read_latency.size();
    s.writes = write_latency.size();
    if (last_done > w.start) {
        s.ops_per_s = static_cast<double>(s.completed) /
                      sim::to_sec(last_done - w.start);
    }
    s.p50_ms = percentile(latency, 50.0) / 1e3;
    s.p99_ms = percentile(latency, 99.0) / 1e3;
    if (read_latency.size() >= kMinClassSamples) {
        s.read_p99_ms = percentile(read_latency, 99.0) / 1e3;
    }
    if (write_latency.size() >= kMinClassSamples) {
        s.write_p99_ms = percentile(write_latency, 99.0) / 1e3;
    }
    if (plan.open_loop) {
        s.gen_lag_p99_ms = percentile(lag, 99.0) / 1e3;
        s.backlog_peak = backlog_peak(log);
    }

    // Correctness (outside the timed window).
    out.checks["warmup_ops_ok"] = system.warm_failures == 0;
    out.checks["attempted_eq_completed_plus_failed"] =
        w.done.count() == 0 && s.attempted == s.completed + s.failed;
    out.checks["every_op_ok"] = not_ok == 0;
    out.checks["final_tree_matches_acked_writes"] =
        final_tree_matches(plan, log, fs->authoritative_tree());
    oracle::LifecycleReport audit =
        oracle::audit_lifecycle(fs->authoritative_tree());
    out.checks["lifecycle_audit_clean"] = audit.violations() == 0;
    if (traced) {
        out.checks["ledger_complete"] = w.ledgers_sum;
        for (int d = 0; d < fs->platform().deployment_count(); ++d) {
            out.members_per_deployment.push_back(
                fs->platform().deployment(d).alive_count());
        }
    }
    return out;
}

double
time_setup(const WorkloadPlan& plan)
{
    const Clock::time_point start = Clock::now();
    System system = set_up(plan, false);
    return seconds_since(start);
}

}  // namespace perfbench
