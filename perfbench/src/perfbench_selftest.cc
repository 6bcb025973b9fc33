// The benchmark's own tests, at reduced workload sizes: workload identity
// (same seed, same op-stream hash; different seed, different hash) and
// determinism (same seed, same simulated metrics and allocations per op;
// the traced run reproduces the untraced simulated metrics), plus every
// correctness check of a repetition. Exit code 0 when all pass.
//
//   python3 perfbench/run.py --selftest
#include <cstdio>
#include <string>

#include "perfbench.h"

namespace {

constexpr double kSize = 0.1;

int g_failures = 0;

void
expect(bool ok, const std::string& what)
{
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
    g_failures += ok ? 0 : 1;
}

void
expect_checks(const perfbench::RepResult& rep, const std::string& prefix)
{
    for (const auto& [name, ok] : rep.checks) {
        expect(ok, prefix + " check " + name);
    }
}

}  // namespace

int
main()
{
    using namespace perfbench;
    for (const std::string& name : workload_names()) {
        WorkloadPlan a;
        WorkloadPlan b;
        WorkloadPlan other;
        expect(make_plan(name, 1, kSize, &a) && make_plan(name, 1, kSize, &b) &&
                   make_plan(name, 2, kSize, &other),
               name + ": plans build");
        expect(a.hash == b.hash, name + ": same seed gives the same hash");
        expect(a.hash != other.hash,
               name + ": different seed gives a different hash");

        // The first repetition in a process pays one-time lazy set-up, so
        // determinism is checked between two later repetitions.
        RepResult warm = run_rep(a, false);
        RepResult first = run_rep(a, false);
        RepResult second = run_rep(b, false);
        expect_checks(first, name + ":");
        expect(first.sim.attempted > 0 && first.sim.failed == 0,
               name + ": every op completes");
        expect(first.sim == second.sim,
               name + ": same seed gives the same simulated metrics");
        expect(warm.sim == first.sim,
               name + ": first repetition gives the same simulated metrics");
        expect(first.window_allocs == second.window_allocs,
               name + ": same seed gives the same allocations");

        RepResult traced = run_rep(a, true);
        expect_checks(traced, name + ": traced");
        expect(traced.sim == first.sim,
               name + ": traced run reproduces the simulated metrics");
        ReplayResult replay = run_replays(a, traced);
        expect(replay.cache_get_ns > 0.0 && replay.store_read_op_us > 0.0 &&
                   replay.coord_round_us > 0.0 && replay.invoke_us > 0.0,
               name + ": every layer replay ran");
    }
    std::printf("%s\n", g_failures == 0 ? "all passed" : "FAILED");
    return g_failures == 0 ? 0 : 1;
}
