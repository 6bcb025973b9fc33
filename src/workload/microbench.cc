#include "src/workload/microbench.h"

#include <memory>
#include <vector>

#include "src/sim/primitives.h"

namespace lfs::workload {

namespace {

/** Hard wall for one run (guards runaway configurations). */
constexpr sim::SimTime kTimeLimit = sim::sec(3600);

struct RunState {
    RunState(sim::Simulation& sim, ns::BuiltTree tree, sim::Rng rng)
        : population(std::move(tree), rng), done(sim)
    {
    }

    PathPopulation population;
    sim::WaitGroup done;
    sim::Histogram latency;
    int64_t completed = 0;
    int64_t failed = 0;
};

sim::Task<void>
co_client(sim::Simulation& sim, Dfs& dfs, size_t client, OpType op_type,
          int ops, RunState& state)
{
    std::string path;  // reused, so the copy allocates once per client
    for (int i = 0; i < ops; ++i) {
        Op op = state.population.make_op(op_type);
        path = op.path;  // op is moved into execute below
        sim::SimTime begin = sim.now();
        OpResult result =
            co_await dfs.client(client).execute(std::move(op));
        sim::SimTime latency = sim.now() - begin;
        bool ok = counts_as_completed(result.status);
        if (ok) {
            ++state.completed;
            state.latency.record(latency);
        } else {
            ++state.failed;
        }
        record_op(sim, dfs, op_type, path, result, latency, ok);
    }
    state.done.done();
}

/** Light background traffic so warm instances exist before measuring. */
sim::Task<void>
co_warmup(sim::Simulation& sim, Dfs& dfs, size_t client, OpType op_type,
          RunState& state, sim::SimTime until)
{
    while (sim.now() < until) {
        Op op = state.population.make_op(
            is_read_op(op_type) ? op_type : OpType::kStat);
        OpResult result =
            co_await dfs.client(client).execute(std::move(op));
        (void)result;
        co_await sim::delay(sim, sim::msec(20));
    }
}

}  // namespace

MicrobenchResult
run_microbench(sim::Simulation& sim, Dfs& dfs, ns::BuiltTree tree,
               MicrobenchConfig config)
{
    sim::Rng rng(config.seed);
    RunState state(sim, std::move(tree), rng.fork());

    // Warmup: every client touches the system so connections exist and
    // instances are provisioned before the measured window.
    sim::SimTime warm_until = sim.now() + config.warmup;
    size_t clients = std::min(static_cast<size_t>(config.num_clients),
                              dfs.client_count());
    size_t warm_clients =
        config.warmup_clients > 0
            ? std::min(static_cast<size_t>(config.warmup_clients), clients)
            : clients;
    for (size_t c = 0; c < warm_clients; ++c) {
        sim::spawn(co_warmup(sim, dfs, c, config.op, state, warm_until));
    }
    sim.run_until(warm_until + sim::sec(2));

    sim::SimTime begin = sim.now();
    for (size_t c = 0; c < clients; ++c) {
        state.done.add();
        sim::spawn(
            co_client(sim, dfs, c, config.op, config.ops_per_client, state));
    }
    sim::SimTime deadline = begin + kTimeLimit;
    while (state.done.count() > 0 && sim.now() < deadline) {
        if (!sim.step()) {
            break;
        }
    }
    sim::SimTime elapsed = sim.now() - begin;

    MicrobenchResult result;
    result.completed = state.completed;
    result.failed = state.failed;
    result.elapsed = elapsed;
    if (elapsed > 0) {
        result.ops_per_sec =
            static_cast<double>(state.completed) / sim::to_sec(elapsed);
    }
    result.mean_latency_ms = state.latency.mean() / 1e3;
    result.p50_latency_ms =
        static_cast<double>(state.latency.p50()) / 1e3;
    result.p99_latency_ms =
        static_cast<double>(state.latency.p99()) / 1e3;
    return result;
}

}  // namespace lfs::workload
