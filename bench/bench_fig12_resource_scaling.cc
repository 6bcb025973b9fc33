/**
 * @file
 * Figure 12 — resource scaling: throughput of the five systems for read,
 * ls, stat, create, and mkdir as the metadata-service vCPU budget grows
 * 16 -> 512 with a fixed client population. λFS converts additional
 * vCPUs into additional serverless NameNodes; HopsFS's store-bound
 * architecture cannot use them; CephFS's MDS cluster does not scale out.
 */
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/harness.h"
#include "common/sweep.h"
#include "src/workload/microbench.h"

namespace lfs::bench {
namespace {

void
run_figure()
{
    const int clients = env_int("LFS_CLIENTS", 512);
    std::vector<double> budgets;
    for (double v = 16; v <= 512; v *= 2) {
        budgets.push_back(v);
    }
    // One sweep point per (op, system, vcpus) cell (see bench_fig11).
    struct Cell {
        OpType op;
        std::string system;
        int64_t ops = 0;  ///< clients x ops per client
    };
    std::vector<Cell> cells;
    SweepRunner sweep;
    for (OpType op : microbench_ops()) {
        for (const std::string& system : microbench_systems()) {
            for (double vcpus : budgets) {
                std::string label = std::string("fig12/") + op_name(op) +
                                    "/" + system + "/vcpus=" +
                                    std::to_string(static_cast<int>(vcpus));
                cells.push_back(Cell{
                    op, system,
                    static_cast<int64_t>(clients) * ops_per_client()});
                sweep.add(label, [=]() {
                    SystemInstance instance =
                        make_system(system, vcpus, clients);
                    workload::MicrobenchConfig mcfg;
                    mcfg.op = op;
                    mcfg.num_clients = clients;
                    mcfg.ops_per_client = ops_per_client();
                    mcfg.seed = sweep_seed(label);
                    workload::MicrobenchResult r = workload::run_microbench(
                        *instance.sim, *instance.dfs,
                        std::move(instance.tree), mcfg);
                    char buf[64];
                    std::snprintf(buf, sizeof(buf), "%.17g %lld",
                                  r.ops_per_sec,
                                  static_cast<long long>(r.completed));
                    return std::string(buf);
                });
            }
        }
    }

    std::map<OpType, std::map<std::string, std::vector<double>>> results;
    std::vector<std::string> payloads = sweep.run();
    std::map<std::string, int> short_cells;
    for (size_t i = 0; i < payloads.size(); ++i) {
        char* end = nullptr;
        results[cells[i].op][cells[i].system].push_back(
            std::strtod(payloads[i].c_str(), &end));
        if (std::strtoll(end, nullptr, 10) < cells[i].ops) {
            ++short_cells[cells[i].system];
        }
    }

    for (OpType op : microbench_ops()) {
        std::printf("\n  %s throughput (ops/sec) vs vCPU budget:\n",
                    op_name(op));
        std::printf("  %-8s", "vcpus");
        for (const auto& system : microbench_systems()) {
            std::printf(" %15s", system.c_str());
        }
        std::printf("\n");
        for (size_t i = 0; i < budgets.size(); ++i) {
            std::printf("  %-8.0f", budgets[i]);
            for (const auto& system : microbench_systems()) {
                std::printf(" %15.0f", results[op][system][i]);
            }
            std::printf("\n");
        }
    }

    auto& read_lambda = results[OpType::kReadFile]["lambda-fs"];
    auto& read_hops = results[OpType::kReadFile]["hopsfs"];
    std::printf("\n  Checks:\n");
    print_check("lambda-fs read scales ~35x from 16 to 512 vCPUs",
                fmt(read_lambda.back() / read_lambda.front()) + "x");
    print_check("hopsfs read barely scales (store-bound)",
                fmt(read_hops.back() / read_hops.front()) + "x");
    print_check("lambda-fs read ~31x hopsfs at 512 vCPUs",
                fmt(read_lambda.back() / read_hops.back()) + "x");
    print_check("write scaling muted (store is the bottleneck)",
                fmt(results[OpType::kCreateFile]["lambda-fs"].back() /
                    results[OpType::kCreateFile]["lambda-fs"].front()) +
                    "x create scale-up for lambda-fs");
    print_short_cells_check(short_cells);
}

}  // namespace
}  // namespace lfs::bench

int
main(int argc, char** argv)
{
    lfs::bench::parse_args(argc, argv);
    lfs::bench::print_banner("Figure 12",
                             "Resource scaling, 16-512 vCPUs, fixed clients");
    lfs::bench::run_figure();
    return 0;
}
