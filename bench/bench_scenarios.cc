/**
 * @file
 * Lifecycle scenario sweep over the extended metadata op surface —
 * hard links, symlinks, setattr, statfs, file sessions, and GC — run
 * end-to-end through every microbenchmark system (DESIGN.md §12).
 *
 * Three scenarios, each a miniature of a lifecycle test in
 * tests/test_lifecycle_scenarios.cc, sized for a perf smoke:
 *
 *   symlink-farm    readers resolving a fan-in of links and a maximal
 *                   chain (stresses resolve splice-and-restart)
 *   hardlink-churn  link/setattr/unlink churn against one shared inode
 *                   (stresses link-count bookkeeping under load)
 *   session-gc      leaked leases over deleted files, reclaimed by a
 *                   GC pass after expiry (stresses orphan tracking)
 *
 * Prints per-system completed ops and mean simulated latency, then
 * cross-system sanity checks (no orphans or sessions survive, every
 * system agrees on the scenario outcome). --bench-log appends the
 * events/sec self-profile of every run to the perf trajectory.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "common/harness.h"
#include "common/sweep.h"

namespace lfs::bench {
namespace {

/** Outcome tallies for one (system, scenario) run. */
struct ScenarioResult {
    int64_t ops_ok = 0;
    int64_t ops_failed = 0;
    double total_latency_ms = 0.0;
    int64_t reclaimed = 0;  ///< session-gc: orphans reclaimed by GC
    size_t orphans_left = 0;
    size_t sessions_left = 0;

    double
    mean_ms() const
    {
        int64_t n = ops_ok + ops_failed;
        return n == 0 ? 0.0 : total_latency_ms / static_cast<double>(n);
    }
};

/** LFS_SCENARIO_ROUNDS (default 40): per-client rounds per scenario. */
int
rounds()
{
    return env_int("LFS_SCENARIO_ROUNDS", 40);
}

Op
make(OpType type, std::string path, std::string dst = "")
{
    Op op;
    op.type = type;
    op.path = std::move(path);
    op.dst = std::move(dst);
    return op;
}

/** Execute one op, folding latency and outcome into @p result. */
sim::Task<void>
co_timed(sim::Simulation& sim, workload::DfsClient& client, Op op,
         ScenarioResult& result, OpResult* out = nullptr)
{
    sim::SimTime begin = sim.now();
    OpResult r = co_await client.execute(std::move(op));
    result.total_latency_ms += sim::to_msec(sim.now() - begin);
    if (r.status.ok()) {
        ++result.ops_ok;
    } else {
        ++result.ops_failed;
    }
    if (out != nullptr) {
        *out = std::move(r);
    }
}

// ----------------------------------------------------------------------
// Scenario 1: symlink farm
// ----------------------------------------------------------------------

sim::Task<void>
co_farm_reader(sim::Simulation& sim, workload::DfsClient& client, int id,
               int reps, ScenarioResult& result, int& done)
{
    for (int r = 0; r < reps; ++r) {
        co_await co_timed(sim, client,
                          make(OpType::kReadFile,
                               "/farm/l" + std::to_string((id * 7 + r) % 32)),
                          result);
        co_await co_timed(sim, client, make(OpType::kStat, "/farm/c7"),
                          result);
        co_await co_timed(sim, client, make(OpType::kReadFile, "/farm/c7"),
                          result);
    }
    ++done;
}

ScenarioResult
run_symlink_farm(SystemInstance& system)
{
    ns::UserContext root;
    ns::NamespaceTree& tree = system.dfs->authoritative_tree();
    tree.mkdirs("/data", root, 0);
    tree.mkdirs("/farm", root, 0);
    for (int i = 0; i < 8; ++i) {
        tree.create_file("/data/f" + std::to_string(i), root, 0);
    }
    for (int i = 0; i < 32; ++i) {
        tree.symlink("/farm/l" + std::to_string(i),
                     "/data/f" + std::to_string(i % 8), root, 0);
    }
    // Maximal legal chain: c7 -> ... -> c0 -> /data/f0.
    tree.symlink("/farm/c0", "/data/f0", root, 0);
    for (int i = 1; i < 8; ++i) {
        tree.symlink("/farm/c" + std::to_string(i),
                     "/farm/c" + std::to_string(i - 1), root, 0);
    }

    sim::Simulation& sim = *system.sim;
    sim.run_until(sim.now() + sim::sec(5));
    ScenarioResult result;
    int done = 0;
    for (int c = 0; c < 4; ++c) {
        sim::spawn(co_farm_reader(sim, system.dfs->client(c), c, rounds(),
                                  result, done));
    }
    sim.run_until(sim.now() + sim::sec(100000));
    if (done != 4) {
        std::printf("  !! symlink-farm: only %d/4 readers finished\n", done);
    }
    return result;
}

// ----------------------------------------------------------------------
// Scenario 2: hard-link churn
// ----------------------------------------------------------------------

sim::Task<void>
co_link_churner(sim::Simulation& sim, workload::DfsClient& client, int id,
                int reps, ScenarioResult& result, int& done)
{
    for (int r = 0; r < reps; ++r) {
        std::string ln =
            "/links/ln" + std::to_string(id) + "_" + std::to_string(r);
        co_await co_timed(sim, client,
                          make(OpType::kHardLink, "/stable/f", ln), result);
        Op chmod = make(OpType::kSetAttr, ln);
        chmod.attr.mask = AttrUpdate::kMode;
        chmod.attr.mode = (r % 2 == 0) ? 0600 : 0644;
        co_await co_timed(sim, client, std::move(chmod), result);
        if (r % 2 == 1) {
            co_await co_timed(sim, client, make(OpType::kDeleteFile, ln),
                              result);
        }
    }
    ++done;
}

ScenarioResult
run_hardlink_churn(SystemInstance& system)
{
    ns::UserContext root;
    ns::NamespaceTree& tree = system.dfs->authoritative_tree();
    tree.mkdirs("/stable", root, 0);
    tree.mkdirs("/links", root, 0);
    tree.create_file("/stable/f", root, 0);

    sim::Simulation& sim = *system.sim;
    sim.run_until(sim.now() + sim::sec(5));
    ScenarioResult result;
    int done = 0;
    for (int c = 0; c < 4; ++c) {
        sim::spawn(co_link_churner(sim, system.dfs->client(c), c, rounds(),
                                   result, done));
    }
    sim.run_until(sim.now() + sim::sec(100000));
    if (done != 4) {
        std::printf("  !! hardlink-churn: only %d/4 churners finished\n",
                    done);
    }
    return result;
}

// ----------------------------------------------------------------------
// Scenario 3: session leak and GC recovery
// ----------------------------------------------------------------------

sim::Task<void>
co_session_leaker(sim::Simulation& sim, workload::DfsClient& client, int id,
                  int reps, ScenarioResult& result, int& done)
{
    for (int r = 0; r < reps; ++r) {
        std::string path =
            "/work/s" + std::to_string(id) + "_" + std::to_string(r);
        co_await co_timed(sim, client, make(OpType::kCreateFile, path),
                          result);
        Op open = make(OpType::kOpenSession, path);
        open.session_id =
            1000 + static_cast<uint64_t>(id) * 10000 + static_cast<uint64_t>(r);
        open.lease_ttl = sim::sec(30);
        co_await co_timed(sim, client, std::move(open), result);
        // Delete while the session is open: the inode becomes an orphan.
        co_await co_timed(sim, client, make(OpType::kDeleteFile, path),
                          result);
        // Half the sessions close cleanly; the rest leak (crashed client).
        if (r % 2 == 0) {
            Op close = make(OpType::kCloseSession, "/");
            close.session_id = open.session_id;
            co_await co_timed(sim, client, std::move(close), result);
        }
    }
    ++done;
}

ScenarioResult
run_session_gc(SystemInstance& system)
{
    ns::UserContext root;
    system.dfs->authoritative_tree().mkdirs("/work", root, 0);

    sim::Simulation& sim = *system.sim;
    sim.run_until(sim.now() + sim::sec(5));
    ScenarioResult result;
    int done = 0;
    for (int c = 0; c < 4; ++c) {
        sim::spawn(co_session_leaker(sim, system.dfs->client(c), c, rounds(),
                                     result, done));
    }
    sim.run_until(sim.now() + sim::sec(100000));
    if (done != 4) {
        std::printf("  !! session-gc: only %d/4 leakers finished\n", done);
    }

    // Let every leaked lease expire, then reclaim with one GC pass.
    sim.run_until(sim.now() + sim::sec(60));
    OpResult gc;
    int gc_done = 0;
    sim::spawn([](sim::Simulation& s, workload::DfsClient& client,
                  ScenarioResult& res, OpResult& out,
                  int& flag) -> sim::Task<void> {
        co_await co_timed(s, client, make(OpType::kGcPrune, "/"), res, &out);
        ++flag;
    }(sim, system.dfs->client(0), result, gc, gc_done));
    sim.run_until(sim.now() + sim::sec(100000));
    if (gc_done != 1 || !gc.status.ok()) {
        std::printf("  !! session-gc: GC pass failed\n");
    }
    result.reclaimed = gc.inodes_touched;
    return result;
}

// ----------------------------------------------------------------------
// Sweep
// ----------------------------------------------------------------------

struct Row {
    std::string system;
    ScenarioResult farm;
    ScenarioResult churn;
    ScenarioResult gc;
};

/**
 * Like make_system, but labelled per scenario and without the standard
 * bench tree — each scenario builds its own small namespace.
 */
SystemInstance
make_instance(const std::string& kind, const char* scenario)
{
    SystemInstance instance;
    instance.sim = std::make_unique<sim::Simulation>();
    instance.observer = std::make_unique<ScopedRunObservation>(
        *instance.sim, kind + "/" + scenario);
    constexpr double kVcpus = 64.0;
    constexpr int kVms = 4;
    constexpr int kClientsPerVm = 1;
    if (kind == "lambda-fs") {
        instance.dfs = std::make_unique<core::LambdaFs>(
            *instance.sim, make_lambda_config(kVcpus, kVms, kClientsPerVm));
    } else if (kind == "hopsfs" || kind == "hopsfs+cache") {
        instance.dfs = std::make_unique<core::LambdaFs>(
            *instance.sim,
            make_hops_config(kind, kVcpus, kind == "hopsfs+cache", kVms,
                             kClientsPerVm));
    } else if (kind == "infinicache") {
        instance.dfs =
            make_infinicache(*instance.sim, kVcpus, kVms, kClientsPerVm);
    } else if (kind == "cephfs") {
        instance.dfs = std::make_unique<cephfs::CephFs>(
            *instance.sim, make_cephfs_config(kVms, kClientsPerVm));
    } else {
        std::fprintf(stderr, "unknown system kind: %s\n", kind.c_str());
        std::abort();
    }
    return instance;
}

ScenarioResult
run_scenario(const std::string& kind, const char* scenario,
             ScenarioResult (*body)(SystemInstance&))
{
    SystemInstance system = make_instance(kind, scenario);
    ScenarioResult result = body(system);
    result.orphans_left = system.dfs->authoritative_tree().orphan_count();
    result.sessions_left =
        system.dfs->authoritative_tree().open_session_count();
    return result;
}

/** Round-trip a ScenarioResult through the sweep payload string. */
std::string
serialize(const ScenarioResult& r)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%lld %lld %.17g %lld %zu %zu",
                  static_cast<long long>(r.ops_ok),
                  static_cast<long long>(r.ops_failed), r.total_latency_ms,
                  static_cast<long long>(r.reclaimed), r.orphans_left,
                  r.sessions_left);
    return buf;
}

ScenarioResult
deserialize(const std::string& payload)
{
    ScenarioResult r;
    long long ops_ok = 0;
    long long ops_failed = 0;
    long long reclaimed = 0;
    std::sscanf(payload.c_str(), "%lld %lld %lg %lld %zu %zu", &ops_ok,
                &ops_failed, &r.total_latency_ms, &reclaimed,
                &r.orphans_left, &r.sessions_left);
    r.ops_ok = ops_ok;
    r.ops_failed = ops_failed;
    r.reclaimed = reclaimed;
    return r;
}

void
run_sweep()
{
    std::printf("\n  %d rounds/client, 4 clients per system "
                "(LFS_SCENARIO_ROUNDS)\n",
                rounds());

    // One sweep point per (system, scenario); the result table and the
    // cross-system checks are computed from the merged payloads.
    struct Scenario {
        const char* name;
        ScenarioResult (*body)(SystemInstance&);
    };
    const Scenario scenarios[] = {{"symlink-farm", run_symlink_farm},
                                  {"hardlink-churn", run_hardlink_churn},
                                  {"session-gc", run_session_gc}};
    SweepRunner sweep;
    for (const std::string& kind : microbench_systems()) {
        for (const Scenario& scenario : scenarios) {
            sweep.add(kind + "/" + scenario.name, [kind, scenario]() {
                return serialize(
                    run_scenario(kind, scenario.name, scenario.body));
            });
        }
    }
    std::vector<std::string> payloads = sweep.run();

    std::printf("\n  %-14s | %21s | %21s | %25s\n", "",
                "symlink-farm", "hardlink-churn", "session-gc");
    std::printf("  %-14s | %10s %10s | %10s %10s | %10s %10s %3s\n", "system",
                "ops", "mean ms", "ops", "mean ms", "ops", "mean ms", "rec");

    std::vector<Row> rows;
    size_t next_payload = 0;
    for (const std::string& kind : microbench_systems()) {
        Row row;
        row.system = kind;
        row.farm = deserialize(payloads[next_payload++]);
        row.churn = deserialize(payloads[next_payload++]);
        row.gc = deserialize(payloads[next_payload++]);
        std::printf("  %-14s | %10lld %10.3f | %10lld %10.3f | %10lld %10.3f "
                    "%3lld\n",
                    row.system.c_str(),
                    static_cast<long long>(row.farm.ops_ok), row.farm.mean_ms(),
                    static_cast<long long>(row.churn.ops_ok),
                    row.churn.mean_ms(),
                    static_cast<long long>(row.gc.ops_ok), row.gc.mean_ms(),
                    static_cast<long long>(row.gc.reclaimed));
        rows.push_back(std::move(row));
    }

    // The leaked-lease count is deterministic: rounds() opens per client,
    // half closed, 4 clients -> 4 * ceil(rounds/2) orphans for GC.
    int64_t expected_reclaim = 4ll * ((rounds() + 1) / 2);
    bool all_clean = true;
    bool all_reclaimed = true;
    bool no_failures = true;
    for (const Row& row : rows) {
        all_clean = all_clean && row.gc.orphans_left == 0 &&
                    row.gc.sessions_left == 0;
        all_reclaimed = all_reclaimed && row.gc.reclaimed == expected_reclaim;
        no_failures = no_failures && row.farm.ops_failed == 0 &&
                      row.churn.ops_failed == 0 && row.gc.ops_failed == 0;
    }

    std::printf("\n  Checks:\n");
    print_check("every op on every system succeeds",
                no_failures ? "yes" : "NO — failures above");
    print_check("GC reclaims every leaked lease on every system",
                all_reclaimed ? "yes (" + fmt(expected_reclaim, 0) + ")"
                              : "NO");
    print_check("no orphans or sessions survive the sweep",
                all_clean ? "yes" : "NO");
}

}  // namespace
}  // namespace lfs::bench

int
main(int argc, char** argv)
{
    lfs::bench::parse_args(argc, argv);
    lfs::bench::print_banner(
        "Scenarios", "Extended op-surface lifecycle sweep (links/sessions/GC)");
    lfs::bench::run_sweep();
    return 0;
}
