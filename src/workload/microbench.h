/**
 * @file
 * Closed-loop microbenchmark driver for the scalability experiments
 * (§5.3, Figures 11/12/14): N clients each execute M operations of one
 * type against an existing directory tree; the result is the aggregate
 * throughput and latency distribution.
 */
#pragma once

#include "src/namespace/tree_builder.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"
#include "src/workload/dfs_interface.h"
#include "src/workload/path_population.h"

namespace lfs::workload {

struct MicrobenchConfig {
    OpType op = OpType::kReadFile;
    int num_clients = 64;
    int ops_per_client = 256;
    /** Clients that generate warmup traffic (0 = num_clients). */
    int warmup_clients = 0;
    /** Simulated warmup before measurement starts. */
    sim::SimTime warmup = sim::sec(4);
    uint64_t seed = 11;
};

struct MicrobenchResult {
    double ops_per_sec = 0.0;
    double mean_latency_ms = 0.0;
    double p50_latency_ms = 0.0;
    double p99_latency_ms = 0.0;
    int64_t completed = 0;
    int64_t failed = 0;
    sim::SimTime elapsed = 0;
};

/**
 * Run one closed-loop microbenchmark on @p dfs. The simulation is
 * advanced internally (warmup, run, drain). @p tree is the pre-built
 * path population.
 */
MicrobenchResult run_microbench(sim::Simulation& sim, Dfs& dfs,
                                ns::BuiltTree tree, MicrobenchConfig config);

}  // namespace lfs::workload
