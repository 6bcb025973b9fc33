/**
 * @file
 * Figure 9 — cumulative monetary cost of the 25k-base Spotify workload:
 * λFS under AWS Lambda pay-per-use pricing, λFS under the "simplified"
 * provisioned-time model, and HopsFS / HopsFS+Cache billed as 512-vCPU
 * VM clusters. The paper reports $0.35 (λFS) vs $2.50 (HopsFS), a 7.14x
 * reduction, with the simplified model roughly doubling λFS's cost.
 */
#include <cstdio>
#include <memory>
#include <vector>

#include "common/harness.h"

namespace lfs::bench {
namespace {

void
run_figure()
{
    double s = scale();
    int num_vms = 8;
    int clients_per_vm = std::max(1, static_cast<int>(1024 * s) / num_vms);
    double vcpus = 512.0 * s;
    workload::SpotifyConfig wcfg;
    wcfg.base_throughput = 25000.0 * s;
    wcfg.duration = sim::sec(env_int("LFS_DURATION", 240));
    wcfg.num_client_vms = num_vms;

    IndustrialRun lambda_run;
    {
        sim::Simulation sim;
        core::LambdaFsConfig config =
            make_lambda_config(vcpus / 2, num_vms, clients_per_vm, s);
        core::LambdaFs fs(sim, config);
        ns::BuiltTree tree = build_scaled_tree(fs.authoritative_tree(), s);
        lambda_run = run_industrial(sim, fs, std::move(tree), wcfg);
    }
    IndustrialRun hops_run;
    {
        sim::Simulation sim;
        core::LambdaFs fs(sim, make_hops_config("hopsfs", vcpus, false,
                                               num_vms, clients_per_vm, s));
        ns::BuiltTree tree = build_scaled_tree(fs.authoritative_tree(), s);
        hops_run = run_industrial(sim, fs, std::move(tree), wcfg);
    }
    IndustrialRun cache_run;
    {
        sim::Simulation sim;
        core::LambdaFs fs(sim,
                          make_hops_config("hopsfs+cache", vcpus, true,
                                           num_vms, clients_per_vm, s));
        ns::BuiltTree tree = build_scaled_tree(fs.authoritative_tree(), s);
        cache_run = run_industrial(sim, fs, std::move(tree), wcfg);
    }

    std::printf("\n  Cumulative cost (USD) during the workload:\n");
    std::printf("  %-6s %14s %18s %12s %14s\n", "t(s)", "lambda-fs",
                "lfs (simplified)", "hopsfs", "hopsfs+cache");
    double cum_l = 0;
    double cum_ls = 0;
    double cum_h = 0;
    double cum_hc = 0;
    for (size_t t = 0; t < lambda_run.cost_per_s.size(); ++t) {
        cum_l += lambda_run.cost_per_s[t];
        cum_ls += lambda_run.simplified_cost_per_s[t];
        cum_h += t < hops_run.cost_per_s.size() ? hops_run.cost_per_s[t] : 0;
        cum_hc +=
            t < cache_run.cost_per_s.size() ? cache_run.cost_per_s[t] : 0;
        if (t % 30 == 0 || t + 1 == lambda_run.cost_per_s.size()) {
            std::printf("  %-6zu %14.4f %18.4f %12.4f %14.4f\n", t, cum_l,
                        cum_ls, cum_h, cum_hc);
        }
    }

    std::printf("\n  Checks:\n");
    print_check("hopsfs ~7.1x more expensive than lambda-fs ($2.50 vs $0.35)",
                fmt(cum_h / cum_l) + "x");
    print_check("simplified model roughly doubles lambda-fs's cost",
                fmt(cum_ls / cum_l) + "x");
    print_check("hopsfs and hopsfs+cache cost the same (same VM cluster)",
                fmt(cum_hc / cum_h) + "x");
}

}  // namespace
}  // namespace lfs::bench

int
main(int argc, char** argv)
{
    lfs::bench::parse_args(argc, argv);
    lfs::bench::print_banner("Figure 9",
                             "Cumulative cost of the 25k Spotify workload");
    lfs::bench::run_figure();
    return 0;
}
