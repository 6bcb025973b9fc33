#include "src/workload/spotify_workload.h"

#include <algorithm>
#include <cmath>

#include "src/sim/fault.h"

namespace lfs::workload {

namespace {

/** Pareto shape of the epoch rates (the paper's own alpha, §5.2.1). */
constexpr double kParetoAlpha = 2.0;
/** Where in the run the forced peak epoch starts (t = 200 of 300 s). */
constexpr double kForcePeakAtFraction = 0.66;

}  // namespace

SpotifyWorkload::SpotifyWorkload(sim::Simulation& sim, Dfs& dfs,
                                 ns::BuiltTree tree, SpotifyConfig config)
    : sim_(sim),
      dfs_(dfs),
      config_(config),
      rng_(config.seed),
      population_(std::move(tree), rng_.fork()),
      mix_(OpMix::spotify()),
      owed_(static_cast<size_t>(config.num_client_vms), 0),
      offered_series_(sim::sec(1))
{
    for (int vm = 0; vm < config_.num_client_vms; ++vm) {
        work_.push_back(std::make_unique<sim::Semaphore>(sim_, 0));
    }
}

SpotifyWorkload::~SpotifyWorkload() = default;

void
SpotifyWorkload::start()
{
    size_t clients = dfs_.client_count();
    int vms = config_.num_client_vms;
    for (size_t c = 0; c < clients; ++c) {
        int vm = static_cast<int>(c) * vms / static_cast<int>(clients);
        ++active_workers_;
        sim::spawn(worker(c, vm));
    }
    sim::spawn(scheduler());
}

sim::Task<void>
SpotifyWorkload::scheduler()
{
    sim::SimTime start = sim_.now();
    sim::SimTime end = start + config_.duration;
    std::vector<double> carry(owed_.size(), 0.0);
    current_rate_ = config_.base_throughput;

    sim::SimTime next_epoch = start;
    sim::SimTime forced_burst_epoch =
        config_.force_peak_burst
            ? start + static_cast<sim::SimTime>(
                          kForcePeakAtFraction *
                          static_cast<double>(config_.duration))
            : sim::kNever;
    while (sim_.now() < end) {
        if (sim_.now() >= next_epoch) {
            // Draw the next epoch's target rate from Pareto(alpha, x_t),
            // capped at burst_cap x base. One epoch is forced to the cap
            // (the paper's designed 7x spike at t = 200).
            bool forced = forced_burst_epoch != sim::kNever &&
                          sim_.now() >= forced_burst_epoch &&
                          sim_.now() < forced_burst_epoch + config_.epoch;
            current_rate_ =
                forced ? config_.burst_cap * config_.base_throughput
                       : rng_.pareto(kParetoAlpha,
                                     config_.base_throughput,
                                     config_.burst_cap *
                                         config_.base_throughput);
            next_epoch += config_.epoch;
        }
        // An installed FaultPlan can scale the offered load up (burst) or
        // down (trough) over scheduled windows — the reproducible overload
        // scenario used by the overload-control tests and bench_overload.
        sim::FaultPlan* plan = sim_.fault_plan();
        double load_mult = plan ? plan->offered_load_multiplier() : 1.0;
        double per_vm = current_rate_ * load_mult /
                        static_cast<double>(owed_.size());
        for (size_t vm = 0; vm < owed_.size(); ++vm) {
            carry[vm] += per_vm;
            int64_t grant = static_cast<int64_t>(carry[vm]);
            carry[vm] -= static_cast<double>(grant);
            owed_[vm] += grant;
            offered_ += grant;
            offered_series_.add(sim_.now(), static_cast<double>(grant));
            for (int64_t i = 0; i < grant; ++i) {
                work_[vm]->release();
            }
        }
        dfs_.metrics().sample_active_nodes(sim_.now(),
                                           dfs_.active_name_nodes());
        co_await sim::delay(sim_, sim::sec(1));
    }
    generation_done_ = true;
    // Poison pills: one per worker per VM wakes everyone once the owed
    // counters run dry.
    size_t clients = dfs_.client_count();
    for (size_t vm = 0; vm < work_.size(); ++vm) {
        for (size_t c = 0; c < clients; ++c) {
            work_[vm]->release();
        }
    }
}

sim::Task<void>
SpotifyWorkload::worker(size_t client_index, int vm)
{
    sim::Rng rng = rng_.fork();
    std::string path;  // reused, so the copy allocates once per worker
    while (true) {
        co_await work_[static_cast<size_t>(vm)]->acquire();
        if (owed_[static_cast<size_t>(vm)] <= 0) {
            break;  // poison pill after generation finished
        }
        --owed_[static_cast<size_t>(vm)];
        Op op = population_.make_op(mix_.sample(rng));
        OpType type = op.type;  // population may rewrite the type
        path = op.path;         // op is moved into execute below
        sim::SimTime begin = sim_.now();
        OpResult result = co_await dfs_.client(client_index).execute(
            std::move(op));
        sim::SimTime latency = sim_.now() - begin;
        bool ok = counts_as_completed(result.status);
        dfs_.metrics().record(sim_.now(), type, latency, ok,
                              result.status.code());
        record_op(sim_, dfs_, type, path, result, latency, ok);
    }
    --active_workers_;
}

bool
SpotifyWorkload::finished() const
{
    return generation_done_ && active_workers_ == 0;
}

}  // namespace lfs::workload
