/**
 * @file
 * Figure 16 — λIndexFS vs IndexFS on the tree-test benchmark: per-client
 * write (mknod) then read (getattr) phases, for 2..256 clients, in both
 * the fixed-size (total op budget split across clients) and
 * variable-size (fixed ops per client) variants. Op counts are scaled
 * from the paper's 1M/10k via LFS_TT_* (see EXPERIMENTS.md).
 */
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/harness.h"
#include "src/workload/tree_test.h"

namespace lfs::bench {
namespace {

workload::TreeTestResult
run_one(const std::string& system, workload::TreeTestConfig tcfg)
{
    sim::Simulation sim;
    ScopedRunObservation obs(sim, system);
    if (system == "indexfs") {
        indexfs::IndexFsConfig config;
        config.clients_per_vm =
            std::max(1, (tcfg.num_clients + config.num_client_vms - 1) /
                            config.num_client_vms);
        indexfs::IndexFs fs(sim, config);
        return workload::run_tree_test(
            sim, fs, tcfg, [&fs](const std::string& dir) {
                fs.preload(dir, ns::INodeType::kDirectory);
            });
    }
    core::LambdaFsConfig config = core::lambda_indexfs_config();
    config.clients_per_vm =
        std::max(1, (tcfg.num_clients + config.num_client_vms - 1) /
                        config.num_client_vms);
    core::LambdaFs fs(sim, config);
    return workload::run_tree_test(
        sim, fs, tcfg, [&fs](const std::string& dir) {
            fs.preload(dir, ns::INodeType::kDirectory);
        });
}

void
run_variant(bool fixed, int64_t fixed_total, int64_t per_client)
{
    std::printf("\n--- %s workload (%s) ---\n",
                fixed ? "fixed-sized" : "variable-sized",
                fixed ? "total op budget split across clients"
                      : "constant ops per client");
    std::printf("  %-8s | %12s %12s %12s | %12s %12s %12s\n", "clients",
                "lIdx write", "lIdx read", "lIdx agg", "Idx write",
                "Idx read", "Idx agg");

    double lambda_read_last = 0;
    double index_read_last = 0;
    double lambda_write_last = 0;
    double index_write_last = 0;
    for (int clients = 2; clients <= 256; clients *= 2) {
        workload::TreeTestConfig tcfg;
        tcfg.num_clients = clients;
        if (fixed) {
            tcfg.fixed_total_ops = fixed_total;
        } else {
            tcfg.ops_per_client = per_client;
        }
        workload::TreeTestResult lambda = run_one("lambda-indexfs", tcfg);
        workload::TreeTestResult index = run_one("indexfs", tcfg);
        std::printf("  %-8d | %12.0f %12.0f %12.0f | %12.0f %12.0f %12.0f\n",
                    clients, lambda.write_ops_per_sec,
                    lambda.read_ops_per_sec, lambda.agg_ops_per_sec,
                    index.write_ops_per_sec, index.read_ops_per_sec,
                    index.agg_ops_per_sec);
        lambda_read_last = lambda.read_ops_per_sec;
        index_read_last = index.read_ops_per_sec;
        lambda_write_last = lambda.write_ops_per_sec;
        index_write_last = index.write_ops_per_sec;
    }
    std::printf("\n  Checks (%s, 256 clients):\n",
                fixed ? "fixed" : "variable");
    print_check("lambda-indexfs read throughput consistently higher",
                fmt(lambda_read_last / index_read_last) + "x indexfs");
    print_check("lambda-indexfs write throughput significantly higher",
                fmt(lambda_write_last / index_write_last) + "x indexfs");
}

}  // namespace
}  // namespace lfs::bench

int
main(int argc, char** argv)
{
    lfs::bench::parse_args(argc, argv);
    const int64_t fixed_total =
        lfs::bench::env_int("LFS_TT_FIXED_TOTAL", 100000);
    const int64_t per_client = lfs::bench::env_int("LFS_TT_PER_CLIENT", 1000);
    lfs::bench::print_banner(
        "Figure 16", "lambda-indexfs vs indexfs (tree-test on BeeGFS)",
        "LFS_TT_FIXED_TOTAL=" + std::to_string(fixed_total) +
            " LFS_TT_PER_CLIENT=" + std::to_string(per_client));
    lfs::bench::run_variant(/*fixed=*/true, fixed_total, per_client);
    lfs::bench::run_variant(/*fixed=*/false, fixed_total, per_client);
    return 0;
}
