/**
 * @file
 * Table 3 — end-to-end latency of subtree mv operations on directories
 * of 2^18, 2^19, and 2^20 files, λFS vs HopsFS. The paper reports λFS
 * 13-16% faster at the smaller sizes (serverless offloading of the
 * batched sub-operations) converging to parity at 2^20 files, where the
 * persistent store's per-row work dominates.
 */
#include <cstdio>
#include <memory>
#include <vector>

#include "common/harness.h"
#include "src/namespace/tree_builder.h"

namespace lfs::bench {
namespace {

sim::Task<void>
co_execute_timed(sim::Simulation& sim, workload::DfsClient& client, Op op,
                 OpResult& out, sim::SimTime& done_at)
{
    out = co_await client.execute(std::move(op));
    done_at = sim.now();
}

/** Time one subtree mv of a directory with @p files files. */
double
time_mv(workload::Dfs& dfs, sim::Simulation& sim, int64_t files)
{
    ns::UserContext root;
    ns::build_flat_directory(dfs.authoritative_tree(), "/subtree", files,
                             root, 0);
    dfs.authoritative_tree().mkdirs("/moved", root, 0);
    sim.run_until(sim.now() + sim::sec(5));  // prewarm

    Op op;
    op.type = OpType::kSubtreeMv;
    op.path = "/subtree";
    op.dst = "/moved/subtree";
    OpResult result;
    sim::SimTime begin = sim.now();
    sim::SimTime done_at = -1;
    sim::spawn(co_execute_timed(sim, dfs.client(0), std::move(op), result,
                                done_at));
    // Drive until the operation itself completes; pending client timers
    // (timeouts armed far in the future) must not stretch the clock.
    while (done_at < 0 && sim.step()) {
    }
    if (!result.status.ok()) {
        std::printf("  !! mv failed: %s\n", result.status.to_string().c_str());
        return -1.0;
    }
    return sim::to_msec(done_at - begin);
}

void
run_table()
{
    std::vector<int64_t> sizes{1 << 18, 1 << 19, 1 << 20};
    if (env_int("LFS_SUBTREE_QUICK", 0)) {
        sizes = {1 << 14, 1 << 15, 1 << 16};
    }
    std::printf("\n  %-14s %14s %14s %10s\n", "directory size", "hopsfs (ms)",
                "lambda-fs (ms)", "lfs/hops");
    std::vector<double> ratios;
    for (int64_t files : sizes) {
        std::string size_tag = "/files=" + std::to_string(files);
        double hops_ms = 0;
        {
            sim::Simulation sim;
            ScopedRunObservation obs(sim, "hopsfs" + size_tag);
            core::LambdaFs fs(sim,
                              make_hops_config("hopsfs", 512.0, false, 8, 2));
            hops_ms = time_mv(fs, sim, files);
        }
        double lambda_ms = 0;
        {
            sim::Simulation sim;
            ScopedRunObservation obs(sim, "lambda-fs" + size_tag);
            core::LambdaFs fs(sim, make_lambda_config(512.0, 8, 2));
            lambda_ms = time_mv(fs, sim, files);
        }
        ratios.push_back(lambda_ms / hops_ms);
        std::printf("  %-14lld %14.1f %14.1f %9.3f\n",
                    static_cast<long long>(files), hops_ms, lambda_ms,
                    ratios.back());
    }

    std::printf("\n  Checks:\n");
    print_check("lambda-fs ~16% faster at 2^18 files",
                fmt((1.0 - ratios[0]) * 100, 1) + "% faster");
    print_check("lambda-fs ~13% faster at 2^19 files",
                fmt((1.0 - ratios[1]) * 100, 1) + "% faster");
    print_check("parity at 2^20 files (store-dominated)",
                fmt(ratios[2], 3) + "x");
}

}  // namespace
}  // namespace lfs::bench

int
main(int argc, char** argv)
{
    lfs::bench::parse_args(argc, argv);
    lfs::bench::print_banner("Table 3", "Subtree mv latency vs directory size");
    lfs::bench::run_table();
    return 0;
}
