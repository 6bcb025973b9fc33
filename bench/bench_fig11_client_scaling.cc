/**
 * @file
 * Figure 11 — client-driven scaling: throughput of λFS, HopsFS,
 * HopsFS+Cache, InfiniCache, and CephFS for read, ls, stat, create, and
 * mkdir as the client count grows 8 -> 1024 under a fixed 512-vCPU
 * budget (each client performs LFS_OPS_PER_CLIENT operations; the paper
 * uses 3072).
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
    const double vcpus = env_double("LFS_VCPUS", 512.0);
    const int max_clients = env_int("LFS_MAX_CLIENTS", 1024);
    std::vector<int> client_counts;
    for (int c = 8; c <= max_clients; c *= 2) {
        client_counts.push_back(c);
    }
    // One sweep point per (op, system, clients) cell; each runs in its
    // own forked child under LFS_SWEEP_JOBS and returns ops/sec.
    struct Cell {
        OpType op;
        std::string system;
        int64_t ops = 0;  ///< clients x ops per client
    };
    std::vector<Cell> cells;
    SweepRunner sweep;
    for (OpType op : microbench_ops()) {
        for (const std::string& system : microbench_systems()) {
            for (int clients : client_counts) {
                std::string label = std::string("fig11/") + op_name(op) +
                                    "/" + system +
                                    "/clients=" + std::to_string(clients);
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

    // results[op][system] -> series over client counts
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
        std::printf("\n  %s throughput (ops/sec) vs number of clients:\n",
                    op_name(op));
        std::printf("  %-8s", "clients");
        for (const auto& system : microbench_systems()) {
            std::printf(" %15s", system.c_str());
        }
        std::printf("\n");
        for (size_t i = 0; i < client_counts.size(); ++i) {
            std::printf("  %-8d", client_counts[i]);
            for (const auto& system : microbench_systems()) {
                std::printf(" %15.0f", results[op][system][i]);
            }
            std::printf("\n");
        }
    }

    // Paper-vs-measured checks at the largest problem size.
    auto at_max = [&](OpType op, const std::string& system) {
        return results[op][system].back();
    };
    std::printf("\n  Checks (1024 clients):\n");
    print_check("lambda-fs read ~29x hopsfs",
                fmt(at_max(OpType::kReadFile, "lambda-fs") /
                    at_max(OpType::kReadFile, "hopsfs")) + "x");
    print_check("lambda-fs stat ~8x hopsfs",
                fmt(at_max(OpType::kStat, "lambda-fs") /
                    at_max(OpType::kStat, "hopsfs")) + "x");
    print_check("lambda-fs ls ~21x hopsfs",
                fmt(at_max(OpType::kLs, "lambda-fs") /
                    at_max(OpType::kLs, "hopsfs")) + "x");
    print_check("lambda-fs create ~1.5x hopsfs",
                fmt(at_max(OpType::kCreateFile, "lambda-fs") /
                    at_max(OpType::kCreateFile, "hopsfs")) + "x");
    print_check("mkdir roughly equal (store-bound)",
                fmt(at_max(OpType::kMkdir, "lambda-fs") /
                    at_max(OpType::kMkdir, "hopsfs")) + "x");
    print_check("cephfs wins reads at small scale, plateaus later",
                fmt(results[OpType::kReadFile]["cephfs"][0] /
                    results[OpType::kReadFile]["lambda-fs"][0]) +
                    "x at 8 clients vs " +
                    fmt(at_max(OpType::kReadFile, "cephfs") /
                        at_max(OpType::kReadFile, "lambda-fs")) +
                    "x at 1024");
    print_check("cephfs create beats the NDB-backed systems",
                fmt(at_max(OpType::kCreateFile, "cephfs") /
                    at_max(OpType::kCreateFile, "hopsfs")) + "x hopsfs");
    print_check("infinicache collapses under load",
                fmt(at_max(OpType::kReadFile, "infinicache") /
                    at_max(OpType::kReadFile, "lambda-fs")) +
                    "x of lambda-fs read");
    print_short_cells_check(short_cells);
}

}  // namespace
}  // namespace lfs::bench

int
main(int argc, char** argv)
{
    lfs::bench::parse_args(argc, argv);
    lfs::bench::print_banner("Figure 11",
                             "Client-driven scaling, 512 vCPUs fixed");
    lfs::bench::run_figure();
    return 0;
}
