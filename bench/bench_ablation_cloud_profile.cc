/**
 * @file
 * Ablation — cloud-profile robustness (§5.1, §A.8: "results were
 * verified to be consistent with results obtained on GCP"): the 25k
 * industrial workload runs under an AWS-like and a GCP-like latency
 * profile; the λFS-vs-HopsFS relationships must hold under both.
 */
#include <cstdio>
#include <memory>

#include "common/harness.h"

namespace lfs::bench {
namespace {

/** A GCP-flavoured latency profile: slightly different band shapes. */
net::NetworkConfig
gcp_profile()
{
    net::NetworkConfig config;
    config.local = {sim::usec(8), sim::usec(30)};
    config.tcp = {sim::usec(250), sim::usec(600)};
    config.http = {sim::usec(3000), sim::usec(11000)};
    config.store = {sim::usec(180), sim::usec(420)};
    config.coord = {sim::usec(180), sim::usec(450)};
    return config;
}

struct ProfileResult {
    double lambda_avg = 0;
    double hops_avg = 0;
    double lambda_read_ms = 0;
    double hops_read_ms = 0;
};

ProfileResult
run_profile(const char* label, const net::NetworkConfig& network)
{
    double s = scale();
    int num_vms = 8;
    int clients_per_vm = std::max(1, static_cast<int>(1024 * s) / num_vms);
    double vcpus = 512.0 * s;
    workload::SpotifyConfig wcfg;
    wcfg.base_throughput = 25000.0 * s;
    wcfg.duration = sim::sec(env_int("LFS_DURATION", 120));
    wcfg.num_client_vms = num_vms;

    ProfileResult result;
    {
        sim::Simulation sim;
        core::LambdaFsConfig config =
            make_lambda_config(vcpus, num_vms, clients_per_vm, s);
        config.network = network;
        core::LambdaFs fs(sim, config);
        ns::BuiltTree tree = build_scaled_tree(fs.authoritative_tree(), s);
        IndustrialRun run = run_industrial(sim, fs, std::move(tree), wcfg);
        result.lambda_avg = run.avg_throughput;
        result.lambda_read_ms = run.read_latency_ms;
    }
    {
        sim::Simulation sim;
        core::LambdaFsConfig config = make_hops_config(
            "hopsfs", vcpus, false, num_vms, clients_per_vm, s);
        config.network = network;
        core::LambdaFs fs(sim, config);
        ns::BuiltTree tree = build_scaled_tree(fs.authoritative_tree(), s);
        IndustrialRun run = run_industrial(sim, fs, std::move(tree), wcfg);
        result.hops_avg = run.avg_throughput;
        result.hops_read_ms = run.read_latency_ms;
    }
    std::printf("  %-10s lambda-fs %8.0f ops/s %6.2f ms read | hopsfs "
                "%8.0f ops/s %6.2f ms read | tput ratio %.2fx, "
                "read-latency ratio %.1fx\n",
                label, result.lambda_avg, result.lambda_read_ms,
                result.hops_avg, result.hops_read_ms,
                result.lambda_avg / result.hops_avg,
                result.hops_read_ms / result.lambda_read_ms);
    return result;
}

void
run_ablation()
{
    std::printf("\n  25k industrial workload under two cloud latency "
                "profiles:\n\n");
    ProfileResult aws = run_profile("aws-like", net::NetworkConfig{});
    ProfileResult gcp = run_profile("gcp-like", gcp_profile());

    double aws_ratio = aws.lambda_avg / aws.hops_avg;
    double gcp_ratio = gcp.lambda_avg / gcp.hops_avg;
    std::printf("\n  Checks:\n");
    print_check("lambda-fs beats hopsfs on both clouds",
                fmt(aws_ratio) + "x (aws) / " + fmt(gcp_ratio) + "x (gcp)");
    print_check("the relationship is profile-stable (within ~30%)",
                fmt(gcp_ratio / aws_ratio, 3) + "x relative drift");
}

}  // namespace
}  // namespace lfs::bench

int
main(int argc, char** argv)
{
    lfs::bench::parse_args(argc, argv);
    lfs::bench::print_banner(
        "Ablation", "Cloud-profile robustness (AWS-like vs GCP-like, §A.8)");
    lfs::bench::run_ablation();
    return 0;
}
