/**
 * @file
 * Shared infrastructure for the experiment harnesses (one binary per
 * paper table/figure). Provides standard system configurations, scaled
 * experiment sizing (LFS_BENCH_SCALE), benchmark-tree construction, cost
 * sampling, and uniform output formatting with PAPER-vs-MEASURED notes.
 *
 * Scaling: the paper's testbed runs 1024 clients against 512 vCPUs for
 * 300 s at 25k-50k ops/s base rates. The simulator reproduces *shape*
 * (ratios, crossovers, trends); to keep harness runtimes reasonable the
 * industrial-workload experiments scale clients, rates, platform vCPUs,
 * and store capacity by LFS_BENCH_SCALE (default 0.125) — the ratios
 * between systems are scale-invariant. Microbenchmark experiments keep
 * the paper's client counts/vCPUs and reduce only ops-per-client
 * (LFS_OPS_PER_CLIENT, default 192 vs the paper's 3072).
 */
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cephfs/cephfs.h"
#include "src/core/lambda_fs.h"
#include "src/indexfs/indexfs.h"
#include "src/namespace/tree_builder.h"
#include "src/workload/dfs_interface.h"
#include "src/workload/spotify_workload.h"

namespace lfs::bench {

// ----------------------------------------------------------------------
// Observability artifacts (--trace-out= / --metrics-out=)
// ----------------------------------------------------------------------

/** Output paths requested on the command line (empty = off). */
struct ObservabilityOptions {
    std::string trace_out;    ///< Chrome trace_event JSON path
    std::string metrics_out;  ///< metrics-registry JSON path
    std::string bench_log;    ///< perf-trajectory JSONL path (appended)
    bool attribution = false; ///< per-op latency attribution ledger
};

/**
 * Parse `--trace-out=PATH` / `--metrics-out=PATH` / `--attribution` /
 * `--bench-log=PATH` (also honoured via the LFS_TRACE_OUT /
 * LFS_METRICS_OUT / LFS_ATTRIBUTION / LFS_BENCH_LOG environment
 * variables) and register an atexit hook that writes the accumulated
 * artifacts. `--bench-log` appends one dated JSON line per process run
 * to the named trajectory file (see scripts/perf_smoke.sh). Call first
 * thing in every bench main(); unknown arguments are ignored.
 */
void parse_args(int argc, char** argv);

const ObservabilityOptions& observability();

/**
 * Enable tracing on @p sim when --trace-out was requested, and the
 * attribution ledger + tail-exemplar flight recorder when --attribution
 * was. Exemplars carry span trees only when the tracer is armed too
 * (span capture is priced as a tracing cost, not an attribution cost).
 * Harnesses that build their own Simulation (not via
 * make_system/run_industrial) should call this after construction.
 */
void arm_observability(sim::Simulation& sim);

/**
 * Kernel self-profile of one run: simulated events dispatched, wall-clock
 * seconds since arm_observability(), their ratio, and the high-water mark
 * of the event queue. Printed for every observed run and embedded in the
 * metrics JSON under "perf" (the perf-smoke gate parses the printed line).
 */
struct RunPerf {
    uint64_t events = 0;
    double wall_seconds = 0.0;
    double events_per_sec = 0.0;
    size_t peak_backlog = 0;
};

/** Current self-profile of @p sim (timer keeps running). */
RunPerf run_perf(const sim::Simulation& sim);

/**
 * Append one case entry to this process's --bench-log trajectory line
 * (no-op when --bench-log is off). For harnesses that measure wall-clock
 * performance outside a Simulation run (bench_kernel's cases); observe_run
 * adds its entries automatically.
 */
void bench_log_entry(const std::string& label, uint64_t events,
                     double wall_seconds, double events_per_sec);

/**
 * Capture @p sim's trace + metric state as one labelled run in the output
 * artifacts (each run gets its own pid in the Chrome trace). Prints the
 * run's events/sec self-profile, and the flame summary when tracing is
 * on. Safe to call when both flags are off.
 */
void observe_run(sim::Simulation& sim, const std::string& label);

/**
 * RAII pairing of arm_observability() (construction) and observe_run()
 * (destruction) for harnesses that build their own Simulation per run
 * block. Declare right after the Simulation so the capture happens
 * while it is still alive.
 */
class ScopedRunObservation {
  public:
    ScopedRunObservation(sim::Simulation& sim, std::string label)
        : sim_(sim), label_(std::move(label))
    {
        arm_observability(sim_);
    }
    ScopedRunObservation(const ScopedRunObservation&) = delete;
    ScopedRunObservation& operator=(const ScopedRunObservation&) = delete;
    ~ScopedRunObservation() { observe_run(sim_, label_); }

  private:
    sim::Simulation& sim_;
    std::string label_;
};

/** LFS_BENCH_SCALE (default 0.125). */
double scale();

/** LFS_OPS_PER_CLIENT (default 192). */
int ops_per_client();

/**
 * Integer env with default. Unset or empty uses @p fallback; anything
 * that does not parse cleanly to the end (e.g. LFS_SWEEP_JOBS=4x) aborts
 * the process naming the variable — a mistyped knob must never silently
 * truncate into a different experiment.
 */
int env_int(const char* name, int fallback);

/** Double env with default; same strict-parse contract as env_int. */
double env_double(const char* name, double fallback);

// ----------------------------------------------------------------------
// Sweep-child plumbing (internal; used by bench::SweepRunner)
// ----------------------------------------------------------------------

namespace detail {

/**
 * Observability state accumulated by observe_run()/bench_log_entry() in
 * one process — shipped from forked sweep children to the parent, which
 * absorbs them in grid order so the artifacts written at exit match a
 * serial run.
 */
struct HarnessFragments {
    std::vector<std::string> trace;
    std::vector<std::string> metrics;
    std::vector<std::string> bench_log;
};

/**
 * Start a sweep point in the serial (inline) path: offset Chrome-trace
 * pids by @p trace_pid_base and restart per-point pid numbering, so a
 * jobs=1 trace is byte-identical to the merged trace of a forked run.
 */
void sweep_point_begin(int trace_pid_base);

/**
 * Mark this process as a forked sweep child: clear fragments accumulated
 * before the fork, offset Chrome-trace pids by @p trace_pid_base (so the
 * per-point pid ranges stay disjoint across children), and suppress the
 * atexit artifact writers — only the parent writes files.
 */
void sweep_child_begin(int trace_pid_base);

/** Move this process's accumulated fragments out (child serialization). */
HarnessFragments take_fragments();

/** Append a child's fragments (parent merge, called in grid order). */
void absorb_fragments(HarnessFragments fragments);

}  // namespace detail

// ----------------------------------------------------------------------
// Standard system configurations (§5.1)
// ----------------------------------------------------------------------

/** Store configuration; capacity scales with @p s for industrial runs. */
store::StoreConfig make_store_config(double s = 1.0);

/** λFS with a given platform vCPU budget and client fleet. */
core::LambdaFsConfig make_lambda_config(double total_vcpus, int num_vms,
                                        int clients_per_vm,
                                        double store_scale = 1.0);

/** HopsFS / HopsFS+Cache (core::hopsfs_config) with a given NameNode
    vCPU budget. */
core::LambdaFsConfig make_hops_config(const std::string& label,
                                      double total_vcpus, bool cache,
                                      int num_vms, int clients_per_vm,
                                      double store_scale = 1.0);

/**
 * InfiniCache: λFS from core::infinicache_config() with as many
 * deployments as @p total_vcpus holds whole functions, each capped at its
 * one prewarmed instance (a fixed pool).
 */
std::unique_ptr<core::LambdaFs> make_infinicache(sim::Simulation& sim,
                                                 double total_vcpus,
                                                 int num_vms,
                                                 int clients_per_vm);

cephfs::CephFsConfig make_cephfs_config(int num_vms, int clients_per_vm);

// ----------------------------------------------------------------------
// Benchmark namespaces
// ----------------------------------------------------------------------

/** The standard microbenchmark tree (≈26k files across ≈5k dirs). */
ns::BuiltTree build_bench_tree(ns::NamespaceTree& tree);

/** A smaller tree whose size tracks the bench scale (industrial runs). */
ns::BuiltTree build_scaled_tree(ns::NamespaceTree& tree, double s);

// ----------------------------------------------------------------------
// System construction for microbenchmark sweeps
// ----------------------------------------------------------------------

/** One freshly built system under test with its own simulation. */
struct SystemInstance {
    std::unique_ptr<sim::Simulation> sim;
    std::unique_ptr<workload::Dfs> dfs;
    ns::BuiltTree tree;
    // Last member: captured (destroyed) before the simulation it reads.
    std::unique_ptr<ScopedRunObservation> observer;
};

/**
 * Build a system by kind ("lambda-fs", "hopsfs", "hopsfs+cache",
 * "infinicache", "cephfs") with @p total_vcpus of metadata-service
 * resources and @p num_clients clients, plus the standard bench tree.
 */
SystemInstance make_system(const std::string& kind, double total_vcpus,
                           int num_clients);

/** The five systems of Figures 11/12. */
std::vector<std::string> microbench_systems();

/** The five operations of Figures 11/12/14. */
std::vector<OpType> microbench_ops();

// ----------------------------------------------------------------------
// Industrial workload execution
// ----------------------------------------------------------------------

struct IndustrialRun {
    std::string system;
    std::vector<double> throughput;   ///< ops/sec per second
    std::vector<double> name_nodes;   ///< active NN count per second
    std::vector<double> cost_per_s;   ///< $ accrued in each second
    std::vector<double> simplified_cost_per_s;
    double avg_throughput = 0.0;
    double avg_latency_ms = 0.0;
    double read_latency_ms = 0.0;
    double write_latency_ms = 0.0;
    double peak_throughput = 0.0;
    double total_cost = 0.0;
    double total_simplified_cost = 0.0;
    int64_t completed = 0;
    int64_t offered = 0;
    /** Ops the system shed at admission (RESOURCE_EXHAUSTED outcomes). */
    int64_t ops_shed = 0;
    /** Ops that ran out of deadline (DEADLINE_EXCEEDED outcomes). */
    int64_t ops_deadline_missed = 0;
    /** The system's overload-control tallies (zeros when it has none). */
    workload::DegradationStats degradation;
    const workload::SystemMetrics* metrics = nullptr;  ///< run-owned
};

/**
 * Run the Spotify workload against @p dfs inside @p sim and collect the
 * per-second series. @p warmup simulated seconds precede the measured
 * window. Uses simplified-cost sampling when @p dfs is FaaS-based.
 */
IndustrialRun run_industrial(sim::Simulation& sim, workload::Dfs& dfs,
                             ns::BuiltTree tree,
                             workload::SpotifyConfig config,
                             sim::SimTime warmup = sim::sec(5));

// ----------------------------------------------------------------------
// Output formatting
// ----------------------------------------------------------------------

/**
 * Banner for one experiment. Its second line states the run's scale:
 * @p scale_line when given, else LFS_BENCH_SCALE and LFS_OPS_PER_CLIENT.
 */
void print_banner(const char* experiment, const char* title,
                  const std::string& scale_line = "");

/**
 * Graceful-degradation summary for one industrial run: offered vs
 * admitted vs completed-in-deadline, plus where work was shed (gateway,
 * store, breaker) and how retries were capped. Printed automatically by
 * run_industrial when any overload activity occurred; pass @p always to
 * print the (all-zero) table regardless.
 */
void print_degradation_summary(const IndustrialRun& run, bool always = false);

/** "PAPER: ... | MEASURED: ..." comparison line. */
void print_check(const char* claim, const std::string& measured);

/**
 * Figure 11/12 completeness check: per microbench system, the number of
 * sweep cells that completed fewer than their clients x ops-per-client
 * ops (a stalled cell otherwise shows only as a low throughput).
 * scripts/check.sh fails unless every count is 0.
 */
void print_short_cells_check(const std::map<std::string, int>& short_cells);

std::string fmt(double v, int precision = 2);

}  // namespace lfs::bench
