/**
 * @file
 * The industrial ("Spotify") workload driver (§5.2): the hammer-bench
 * derivative that executes the Table-2 operation mix with randomly
 * varying throughput. Every 15 s epoch draws a target rate Δ from a
 * Pareto(α = 2, x_m = base) distribution capped at 7× the base; each of
 * the n client VMs then attempts Δ/n ops per second, and under-achieved
 * operations roll over to the next second (open loop with roll-over).
 */
#pragma once

#include <memory>
#include <vector>

#include "src/namespace/tree_builder.h"
#include "src/sim/primitives.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"
#include "src/workload/dfs_interface.h"
#include "src/workload/op_mix.h"
#include "src/workload/path_population.h"

namespace lfs::workload {

struct SpotifyConfig {
    /** Pareto scale x_t: the workload's base throughput (ops/sec). */
    double base_throughput = 25000.0;
    /** Spikes capped at this multiple of the base (§5.2.1). */
    double burst_cap = 7.0;
    /**
     * Inject one guaranteed cap-sized burst epoch (the paper's designed
     * 163,996-ops/sec spike at t = 200 of the 25k workload).
     */
    bool force_peak_burst = true;
    sim::SimTime epoch = sim::sec(15);
    sim::SimTime duration = sim::sec(300);
    int num_client_vms = 8;
    uint64_t seed = 7;
};

/**
 * Drives @p dfs with the industrial workload and records into the
 * system's metrics. Construct, then start(); the run completes by
 * sim.run_until(cfg.duration + drain).
 */
class SpotifyWorkload {
  public:
    SpotifyWorkload(sim::Simulation& sim, Dfs& dfs, ns::BuiltTree tree,
                    SpotifyConfig config);
    ~SpotifyWorkload();

    /** Launch the epoch scheduler and one worker per client. */
    void start();

    /** True once the duration elapsed and all owed work drained. */
    bool finished() const;

    /** Offered (generated) operations so far. */
    int64_t offered() const { return offered_; }

    /** Target rate of the current epoch (ops/sec across all VMs). */
    double current_rate() const { return current_rate_; }

    /** Per-second series of the offered rate (for harness printing). */
    const sim::TimeSeries& offered_series() const { return offered_series_; }

  private:
    sim::Task<void> scheduler();
    sim::Task<void> worker(size_t client_index, int vm);

    sim::Simulation& sim_;
    Dfs& dfs_;
    SpotifyConfig config_;
    sim::Rng rng_;
    PathPopulation population_;
    OpMix mix_;
    /** Per-VM owed-operation counters; workers drain them. */
    std::vector<int64_t> owed_;
    /** Per-VM gates workers wait on when no work is owed. */
    std::vector<std::unique_ptr<sim::Semaphore>> work_;
    double current_rate_ = 0.0;
    int64_t offered_ = 0;
    bool generation_done_ = false;
    int active_workers_ = 0;
    sim::TimeSeries offered_series_;
};

}  // namespace lfs::workload
