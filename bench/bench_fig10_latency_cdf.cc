/**
 * @file
 * Figure 10 — end-to-end latency CDFs for λFS, HopsFS, and HopsFS+Cache
 * under both Spotify workloads, split into read and write operations.
 * The paper's shape: λFS reads are ~1-2 ms (far left of both baselines),
 * λFS writes sit to the right of HopsFS's writes because of the
 * coherence protocol.
 */
#include <cstdio>
#include <memory>
#include <vector>

#include "common/harness.h"

namespace lfs::bench {
namespace {

void
print_cdf_rows(const char* label, const sim::Histogram& read,
               const sim::Histogram& write)
{
    static const double kFractions[] = {10, 25, 50, 75, 90, 99, 99.9};
    std::printf("  %-18s", label);
    for (double f : kFractions) {
        std::printf(" %9.2f", static_cast<double>(read.percentile(f)) / 1e3);
    }
    std::printf("   |");
    for (double f : kFractions) {
        std::printf(" %9.2f",
                    static_cast<double>(write.percentile(f)) / 1e3);
    }
    std::printf("\n");
}

void
run_workload(double base_rate, const char* tag)
{
    double s = scale();
    int num_vms = 8;
    int clients_per_vm = std::max(1, static_cast<int>(1024 * s) / num_vms);
    double vcpus = 512.0 * s;
    workload::SpotifyConfig wcfg;
    wcfg.base_throughput = base_rate * s;
    wcfg.duration = sim::sec(env_int("LFS_DURATION", 150));
    wcfg.num_client_vms = num_vms;

    std::vector<std::pair<std::string, IndustrialRun>> runs;
    {
        sim::Simulation sim;
        core::LambdaFsConfig config =
            make_lambda_config(vcpus, num_vms, clients_per_vm, s);
        core::LambdaFs fs(sim, config);
        ns::BuiltTree tree = build_scaled_tree(fs.authoritative_tree(), s);
        runs.emplace_back("lambda-fs",
                          run_industrial(sim, fs, std::move(tree), wcfg));
        std::printf("\n--- %s workload ---\n", tag);
        std::printf("  percentile latencies in ms; left block = reads, "
                    "right block = writes\n");
        std::printf("  %-18s %9s %9s %9s %9s %9s %9s %9s   |%9s %9s %9s %9s %9s %9s %9s\n",
                    "system", "p10", "p25", "p50", "p75", "p90", "p99",
                    "p99.9", "p10", "p25", "p50", "p75", "p90", "p99",
                    "p99.9");
        print_cdf_rows("lambda-fs", fs.metrics().read_latency(),
                       fs.metrics().write_latency());
    }
    {
        sim::Simulation sim;
        core::LambdaFs fs(sim, make_hops_config("hopsfs", vcpus, false,
                                               num_vms, clients_per_vm, s));
        ns::BuiltTree tree = build_scaled_tree(fs.authoritative_tree(), s);
        runs.emplace_back("hopsfs",
                          run_industrial(sim, fs, std::move(tree), wcfg));
        print_cdf_rows("hopsfs", fs.metrics().read_latency(),
                       fs.metrics().write_latency());
    }
    {
        sim::Simulation sim;
        core::LambdaFs fs(sim,
                          make_hops_config("hopsfs+cache", vcpus, true,
                                           num_vms, clients_per_vm, s));
        ns::BuiltTree tree = build_scaled_tree(fs.authoritative_tree(), s);
        runs.emplace_back("hopsfs+cache",
                          run_industrial(sim, fs, std::move(tree), wcfg));
        print_cdf_rows("hopsfs+cache", fs.metrics().read_latency(),
                       fs.metrics().write_latency());
    }

    const IndustrialRun& lambda = runs[0].second;
    const IndustrialRun& hops = runs[1].second;
    std::printf("\n  Checks (%s):\n", tag);
    print_check("lambda-fs median read latency in the 1-2ms band",
                fmt(lambda.read_latency_ms) + "ms mean");
    print_check("lambda-fs reads 6.9-20x faster than hopsfs",
                fmt(hops.read_latency_ms / lambda.read_latency_ms) + "x");
    print_check("hopsfs writes 1.5-5.6x faster than lambda-fs",
                fmt(lambda.write_latency_ms / hops.write_latency_ms) + "x");
}

}  // namespace
}  // namespace lfs::bench

int
main(int argc, char** argv)
{
    lfs::bench::parse_args(argc, argv);
    lfs::bench::print_banner("Figure 10",
                             "Latency CDFs under the Spotify workloads");
    lfs::bench::run_workload(25000.0, "25k ops/s");
    lfs::bench::run_workload(50000.0, "50k ops/s");
    return 0;
}
