#include "src/workload/tree_test.h"

#include <memory>
#include <vector>

#include "src/sim/primitives.h"
#include "src/sim/random.h"
#include "src/util/path.h"

namespace lfs::workload {

namespace {

struct TreeTestState {
    explicit TreeTestState(sim::Simulation& sim)
        : write_done(sim), read_done(sim)
    {
    }

    std::vector<std::string> dirs;
    std::vector<std::string> written;
    sim::WaitGroup write_done;
    sim::WaitGroup read_done;
    int64_t writes = 0;
    int64_t reads = 0;
    int64_t failures = 0;
};

sim::Task<void>
co_write_phase(Dfs& dfs, size_t client, int64_t ops, TreeTestState& state,
               sim::Rng rng)
{
    for (int64_t i = 0; i < ops; ++i) {
        const std::string& dir = state.dirs[rng.index(state.dirs.size())];
        Op op;
        op.type = OpType::kCreateFile;
        op.path = path::join(dir, "n" + std::to_string(client) + "_" +
                                      std::to_string(i));
        OpResult result =
            co_await dfs.client(client).execute(op);
        if (counts_as_completed(result.status)) {
            ++state.writes;
            // Only a file that exists is worth reading back.
            if (result.status.ok()) {
                state.written.push_back(op.path);
            }
        } else {
            ++state.failures;
        }
    }
    state.write_done.done();
}

sim::Task<void>
co_read_phase(Dfs& dfs, size_t client, int64_t ops, TreeTestState& state,
              sim::Rng rng)
{
    for (int64_t i = 0; i < ops; ++i) {
        Op op;
        op.type = OpType::kStat;
        op.path = state.written[rng.index(state.written.size())];
        OpResult result = co_await dfs.client(client).execute(std::move(op));
        if (counts_as_completed(result.status)) {
            ++state.reads;
        } else {
            ++state.failures;
        }
    }
    state.read_done.done();
}

sim::Task<void>
co_warm_client(sim::Simulation& sim, Dfs& dfs, size_t client,
               TreeTestState& state, sim::Rng rng, sim::WaitGroup& wg)
{
    // Unmeasured traffic: lets FaaS-based systems establish TCP
    // connections and provision instances before the timed phases, as
    // the paper's long-running clients naturally would.
    for (int i = 0; i < 24; ++i) {
        Op op;
        op.type = OpType::kStat;
        op.path = state.dirs[rng.index(state.dirs.size())];
        OpResult result = co_await dfs.client(client).execute(std::move(op));
        (void)result;
        co_await sim::delay(sim, sim::msec(25));
    }
    wg.done();
}

}  // namespace

TreeTestResult
run_tree_test(sim::Simulation& sim, Dfs& dfs, TreeTestConfig config,
              const std::function<void(const std::string& dir)>& prepare_dir)
{
    sim::Rng rng(config.seed);
    TreeTestState state(sim);
    for (int d = 0; d < config.num_dirs; ++d) {
        std::string dir = config.root + "/d" + std::to_string(d);
        state.dirs.push_back(dir);
        if (prepare_dir) {
            prepare_dir(dir);
        }
    }
    sim.run_until(sim.now() + sim::sec(5));  // settle preloads/prewarming

    size_t warm_clients = std::min(static_cast<size_t>(config.num_clients),
                                   dfs.client_count());
    sim::WaitGroup warm_done(sim);
    for (size_t c = 0; c < warm_clients; ++c) {
        warm_done.add();
        sim::spawn(
            co_warm_client(sim, dfs, c, state, rng.fork(), warm_done));
    }
    while (warm_done.count() > 0 && sim.step()) {
    }

    size_t clients = std::min(static_cast<size_t>(config.num_clients),
                              dfs.client_count());
    int64_t per_client = config.fixed_total_ops > 0
                             ? std::max<int64_t>(
                                   1, config.fixed_total_ops /
                                          static_cast<int64_t>(clients))
                             : config.ops_per_client;

    TreeTestResult result;

    sim::SimTime write_begin = sim.now();
    for (size_t c = 0; c < clients; ++c) {
        state.write_done.add();
        sim::spawn(co_write_phase(dfs, c, per_client, state, rng.fork()));
    }
    while (state.write_done.count() > 0 && sim.step()) {
    }
    sim::SimTime write_elapsed = sim.now() - write_begin;

    if (state.written.empty()) {
        result.failures = state.failures;
        return result;
    }

    sim::SimTime read_begin = sim.now();
    for (size_t c = 0; c < clients; ++c) {
        state.read_done.add();
        sim::spawn(co_read_phase(dfs, c, per_client, state, rng.fork()));
    }
    while (state.read_done.count() > 0 && sim.step()) {
    }
    sim::SimTime read_elapsed = sim.now() - read_begin;

    result.writes = state.writes;
    result.reads = state.reads;
    result.failures = state.failures;
    if (write_elapsed > 0) {
        result.write_ops_per_sec =
            static_cast<double>(state.writes) / sim::to_sec(write_elapsed);
    }
    if (read_elapsed > 0) {
        result.read_ops_per_sec =
            static_cast<double>(state.reads) / sim::to_sec(read_elapsed);
    }
    sim::SimTime total = write_elapsed + read_elapsed;
    if (total > 0) {
        result.agg_ops_per_sec =
            static_cast<double>(state.writes + state.reads) /
            sim::to_sec(total);
    }
    return result;
}

}  // namespace lfs::workload
