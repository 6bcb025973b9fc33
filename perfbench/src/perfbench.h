/**
 * @file
 * The λFS-sim benchmark: three λFS workloads driven through the public
 * client API, end-to-end metrics from untraced runs, per-layer metrics from
 * a traced run plus isolated replays of each layer's public functions.
 *
 * Every op is generated here, from the workload seed, before the system is
 * built; the simulator only receives the generated ops. See README.md in
 * this directory for the workloads, metrics and how to run it.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/lambda_fs.h"
#include "src/namespace/op.h"
#include "src/namespace/tree_builder.h"
#include "src/sim/latency.h"
#include "src/sim/time.h"

namespace perfbench {

using namespace lfs;  // NOLINT: the benchmark speaks the simulator's types

// ----------------------------------------------------------------------
// Allocation counter (alloc_counter.cc replaces global operator new)
// ----------------------------------------------------------------------

/** Global operator new calls since process start. */
uint64_t allocations();

// ----------------------------------------------------------------------
// Workloads
// ----------------------------------------------------------------------

/** One generated op, as handed to a client. */
struct PlannedOp {
    OpType type = OpType::kStat;
    std::string path;
    std::string dst;
    /** Open loop: due time, offset from the window start. */
    sim::SimTime due = 0;
};

/** A workload's system, tree and generated op stream for one seed. */
struct WorkloadPlan {
    std::string name;
    uint64_t seed = 0;
    bool open_loop = false;
    core::LambdaFsConfig config;
    ns::TreeSpec tree;
    /** Paths stat'ed before the window (every tree path), per pass. */
    std::vector<std::string> warm_paths;
    int warm_passes = 1;
    /** Instance cap per deployment (0 = the platform's own limit). */
    int max_instances_per_deployment = 0;
    /** Per client, in issue order. */
    std::vector<std::vector<PlannedOp>> window;
    /** FNV-1a over every generated op (workload identity). */
    uint64_t hash = 0;

    size_t op_count() const;
};

/** The benchmark's workload names, in BENCHMARK.json order. */
const std::vector<std::string>& workload_names();

/**
 * Generate @p name's plan for @p seed. @p size scales the op count (1.0
 * is the benchmark; the self-test uses less). Returns false for an
 * unknown name.
 */
bool make_plan(const std::string& name, uint64_t seed, double size,
               WorkloadPlan* out);

// ----------------------------------------------------------------------
// Running one repetition
// ----------------------------------------------------------------------

/** Simulated outcome of the measured window (deterministic per seed). */
struct SimOutcome {
    uint64_t attempted = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
    double ops_per_s = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double read_p99_ms = 0.0;
    double write_p99_ms = 0.0;
    double cost_usd = 0.0;
    double gen_lag_p99_ms = 0.0;
    uint64_t backlog_peak = 0;
    /** Event-queue high-water mark over the simulation's lifetime. */
    uint64_t peak_pending = 0;
    /** Window deltas of public counters, by per-layer metric stem. */
    std::map<std::string, double> counters;

    bool operator==(const SimOutcome&) const = default;
};

/** One recorded op of the traced run, fed to the layer replays. */
struct RecordedOp {
    Op op;
    OpResult result;
};

/** Everything one repetition measured. */
struct RepResult {
    double setup_s = 0.0;
    double window_s = 0.0;
    uint64_t window_allocs = 0;
    /** Peak RSS of set-up and window above the RSS before set-up, MB. */
    double system_rss_mb = 0.0;
    SimOutcome sim;
    /** Correctness checks by name (true = passed). */
    std::map<std::string, bool> checks;
    // Traced repetitions only.
    /** Per-segment ledger sums over completed ops, in microseconds. */
    std::vector<double> ledger_us;
    double peak_instances = 0.0;
    std::vector<RecordedOp> recorded;
    /** Alive NameNode instances per deployment at the window's end. */
    std::vector<int> members_per_deployment;
};

/**
 * Build the system and tree, warm up, run the window, check the outcome.
 * With @p traced, attribution is on and ops are recorded for the replays.
 */
RepResult run_rep(const WorkloadPlan& plan, bool traced);

/** Wall-clock seconds to build the system and tree and warm up. */
double time_setup(const WorkloadPlan& plan);

// ----------------------------------------------------------------------
// Layer replays (traced runs)
// ----------------------------------------------------------------------

/** Host cost of each layer's public functions on the recorded stream. */
struct ReplayResult {
    double resolve_ns = 0.0;
    double mutate_ns = 0.0;
    double cache_get_ns = 0.0;
    double cache_put_chain_ns = 0.0;
    double cache_invalidate_ns = 0.0;
    double partition_lookup_ns = 0.0;
    double partition_write_targets_ns = 0.0;
    double result_cache_round_ns = 0.0;
    double result_cache_allocs_per_round = 0.0;
    double store_read_op_us = 0.0;
    double store_write_op_us = 0.0;
    double coord_round_us = 0.0;
    double invoke_us = 0.0;
};

ReplayResult run_replays(const WorkloadPlan& plan, const RepResult& traced);

}  // namespace perfbench
