/**
 * @file
 * Figure 8 (a,b,c) — the industrial (Spotify) workload: throughput
 * timelines for λFS, HopsFS, HopsFS+Cache, cost-normalized
 * HopsFS+Cache, and reduced-cache λFS at base rates of 25k and 50k
 * ops/sec (scaled by LFS_BENCH_SCALE), the active-NameNode series, and
 * the performance-per-cost timeline of Figure 8(c).
 */
#include <cstdio>
#include <memory>
#include <vector>

#include "common/harness.h"
#include "src/cost/pricing.h"

namespace lfs::bench {
namespace {

struct SystemRun {
    std::string label;
    IndustrialRun run;
};

IndustrialRun
run_lambda(double vcpus, int num_vms, int clients_per_vm, double store_scale,
           workload::SpotifyConfig wcfg, double cache_fraction_of_wss)
{
    sim::Simulation sim;
    core::LambdaFsConfig config =
        make_lambda_config(vcpus, num_vms, clients_per_vm, store_scale);
    auto fs = std::make_unique<core::LambdaFs>(sim, config);
    ns::BuiltTree tree = build_scaled_tree(fs->authoritative_tree(), scale());
    if (cache_fraction_of_wss > 0) {
        // Reduced-cache variant: per-deployment budget under half of the
        // working-set share (§5.2.3). Rebuild with the smaller cache.
        size_t wss = fs->authoritative_tree().total_metadata_bytes();
        size_t per_deployment =
            static_cast<size_t>(static_cast<double>(wss) /
                                config.num_deployments *
                                cache_fraction_of_wss);
        sim::Simulation sim2;
        core::LambdaFsConfig reduced = config;
        reduced.name_node.cache_bytes = per_deployment;
        auto fs2 = std::make_unique<core::LambdaFs>(sim2, reduced);
        ns::BuiltTree tree2 =
            build_scaled_tree(fs2->authoritative_tree(), scale());
        return run_industrial(sim2, *fs2, std::move(tree2), wcfg);
    }
    return run_industrial(sim, *fs, std::move(tree), wcfg);
}

IndustrialRun
run_hops(const std::string& label, double vcpus, bool cache, int num_vms,
         int clients_per_vm, double store_scale,
         workload::SpotifyConfig wcfg)
{
    sim::Simulation sim;
    core::LambdaFsConfig config = make_hops_config(
        label, vcpus, cache, num_vms, clients_per_vm, store_scale);
    auto fs = std::make_unique<core::LambdaFs>(sim, config);
    ns::BuiltTree tree = build_scaled_tree(fs->authoritative_tree(), scale());
    return run_industrial(sim, *fs, std::move(tree), wcfg);
}

void
print_timeline(const std::vector<SystemRun>& runs, int lambda_index)
{
    std::printf("\n  %-6s", "t(s)");
    for (const auto& r : runs) {
        std::printf(" %14s", r.label.c_str());
    }
    std::printf(" %10s\n", "lfs-NNs");
    size_t seconds = runs.front().run.throughput.size();
    for (size_t t = 0; t < seconds; t += 10) {
        std::printf("  %-6zu", t);
        for (const auto& r : runs) {
            double v = t < r.run.throughput.size() ? r.run.throughput[t] : 0;
            std::printf(" %14.0f", v);
        }
        double nns =
            t < runs[static_cast<size_t>(lambda_index)].run.name_nodes.size()
                ? runs[static_cast<size_t>(lambda_index)].run.name_nodes[t]
                : 0;
        std::printf(" %10.1f\n", nns);
    }
}

void
print_summary(const std::vector<SystemRun>& runs)
{
    std::printf("\n  %-18s %12s %12s %12s %12s %12s %12s\n", "system",
                "avg ops/s", "peak ops/s", "avg lat ms", "read lat",
                "write lat", "cost $");
    for (const auto& r : runs) {
        std::printf("  %-18s %12.0f %12.0f %12.2f %12.2f %12.2f %12.4f\n",
                    r.label.c_str(), r.run.avg_throughput,
                    r.run.peak_throughput, r.run.avg_latency_ms,
                    r.run.read_latency_ms, r.run.write_latency_ms,
                    r.run.total_cost);
    }
}

void
print_perf_per_cost(const SystemRun& lambda, const SystemRun& hops_cache,
                    const char* tag)
{
    std::printf("\n  Figure 8(c) — performance-per-cost (%s), every 30 s:\n",
                tag);
    std::printf("  %-6s %16s %16s\n", "t(s)", "lambda-fs", "hopsfs+cache");
    size_t seconds = lambda.run.throughput.size();
    for (size_t t = 0; t < seconds; t += 30) {
        double l = cost::perf_per_cost(lambda.run.throughput[t],
                                       lambda.run.cost_per_s[t]);
        double h = cost::perf_per_cost(hops_cache.run.throughput[t],
                                       hops_cache.run.cost_per_s[t]);
        std::printf("  %-6zu %16.3g %16.3g\n", t, l, h);
    }
    double lambda_total = cost::perf_per_cost(lambda.run.avg_throughput,
                                              lambda.run.total_cost);
    double hops_total = cost::perf_per_cost(hops_cache.run.avg_throughput,
                                            hops_cache.run.total_cost);
    std::printf("  overall: lambda-fs %.3g ops/s/$, hopsfs+cache %.3g "
                "ops/s/$ (ratio %.2fx)\n",
                lambda_total, hops_total,
                hops_total > 0 ? lambda_total / hops_total : 0.0);
}

void
run_workload(double base_rate, const char* tag, bool include_reduced_cache)
{
    double s = scale();
    int num_vms = 8;
    int clients_per_vm = std::max(1, static_cast<int>(1024 * s) / num_vms);
    double vcpus = 512.0 * s;
    workload::SpotifyConfig wcfg;
    wcfg.base_throughput = base_rate * s;
    wcfg.duration = sim::sec(env_int("LFS_DURATION", 240));
    wcfg.num_client_vms = num_vms;

    std::printf("\n--- Spotify workload, base %.0f ops/s (paper: %s) ---\n",
                wcfg.base_throughput, tag);
    std::printf("  clients=%d platform vCPUs=%.0f duration=%llds\n",
                clients_per_vm * num_vms, vcpus,
                static_cast<long long>(wcfg.duration / sim::sec(1)));

    std::vector<SystemRun> runs;
    // §5.2.1: for the 25k workload λFS gets 50% of HopsFS' vCPUs.
    double lambda_vcpus = include_reduced_cache ? vcpus / 2 : vcpus;
    runs.push_back({"lambda-fs",
                    run_lambda(lambda_vcpus, num_vms, clients_per_vm, s,
                               wcfg, 0.0)});
    runs.push_back({"hopsfs", run_hops("hopsfs", vcpus, false, num_vms,
                                       clients_per_vm, s, wcfg)});
    runs.push_back({"hopsfs+cache",
                    run_hops("hopsfs+cache", vcpus, true, num_vms,
                             clients_per_vm, s, wcfg)});
    // Cost-normalized HopsFS+Cache: 72/512 (25k) or 144/512 (50k) vCPUs.
    double cn_fraction = include_reduced_cache ? 72.0 / 512.0 : 144.0 / 512.0;
    runs.push_back({"cn-hopsfs+cache",
                    run_hops("cn-hopsfs+cache", vcpus * cn_fraction, true,
                             num_vms, clients_per_vm, s, wcfg)});
    if (include_reduced_cache) {
        runs.push_back({"lfs-reduced-cache",
                        run_lambda(lambda_vcpus, num_vms, clients_per_vm, s,
                                   wcfg, 0.4)});
    }

    print_timeline(runs, 0);
    print_summary(runs);
    print_perf_per_cost(runs[0], runs[2], tag);

    const IndustrialRun& lambda = runs[0].run;
    const IndustrialRun& hops = runs[1].run;
    const IndustrialRun& hops_cache = runs[2].run;
    std::printf("\n  Checks (%s):\n", tag);
    print_check("lambda-fs avg throughput > hopsfs (1.19x at 25k, 2.02x at 50k)",
                fmt(lambda.avg_throughput / hops.avg_throughput) + "x");
    print_check("lambda-fs avg latency well below hopsfs (10.4x at 25k)",
                fmt(hops.avg_latency_ms / lambda.avg_latency_ms) +
                    "x lower");
    print_check("lambda-fs peak sustained >> hopsfs peak (4.3x/5.6x)",
                fmt(lambda.peak_throughput / hops.peak_throughput) + "x");
    print_check("lambda-fs read latency 6.9-20x lower than hopsfs",
                fmt(hops.read_latency_ms / lambda.read_latency_ms) + "x");
    print_check("hopsfs write latency 1.5-5.6x lower than lambda-fs",
                fmt(lambda.write_latency_ms / hops.write_latency_ms) + "x");
    print_check("lambda-fs cost ~86% below hopsfs (7.14x)",
                fmt(hops.total_cost / lambda.total_cost) + "x cheaper");
    print_check("lambda-fs ~= hopsfs+cache throughput, ~3.3x lower latency",
                fmt(lambda.avg_throughput / hops_cache.avg_throughput) +
                    "x tput, " +
                    fmt(hops_cache.avg_latency_ms / lambda.avg_latency_ms) +
                    "x lat");
}

}  // namespace
}  // namespace lfs::bench

int
main(int argc, char** argv)
{
    lfs::bench::parse_args(argc, argv);
    lfs::bench::print_banner(
        "Figure 8", "Industrial (Spotify) workload: throughput, elasticity, "
                    "and performance-per-cost");
    lfs::bench::run_workload(25000.0, "25k ops/s",
                             /*include_reduced_cache=*/true);
    lfs::bench::run_workload(50000.0, "50k ops/s",
                             /*include_reduced_cache=*/false);
    return 0;
}
