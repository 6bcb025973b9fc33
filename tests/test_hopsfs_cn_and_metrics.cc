/**
 * @file
 * Coverage for the remaining seams: the cost-normalized HopsFS+Cache
 * configuration (fractional NameNode sizing), SystemMetrics recording
 * semantics, and the Dfs interface defaults.
 */
#include <gtest/gtest.h>

#include "src/core/lambda_fs.h"
#include "src/sim/simulation.h"
#include "src/workload/metrics.h"

namespace lfs {
namespace {

TEST(HopsFsSizing, FractionalBudgetsYieldThinnerNameNodes)
{
    // A 9-vCPU budget (the paper's CN configuration at small scale) must
    // be honoured exactly: one NameNode with 9 vCPUs, not a rounded-up
    // 16-vCPU server.
    sim::Simulation sim;
    core::LambdaFsConfig config = core::hopsfs_config(9.0, true);
    config.num_client_vms = 1;
    config.clients_per_vm = 2;
    core::LambdaFs fs(sim, config);
    EXPECT_EQ(fs.active_name_nodes(), 1);
    EXPECT_DOUBLE_EQ(fs.config().function.vcpus, 9.0);
    sim.run_until(sim::sec(3600));
    EXPECT_NEAR(fs.cost_so_far(), 9.0 * 1.008 / 16.0, 1e-9);
}

TEST(SystemMetrics, RecordsOnlySuccessesIntoThroughput)
{
    workload::SystemMetrics metrics;
    metrics.record(sim::sec(1), OpType::kStat, sim::msec(2), true);
    metrics.record(sim::sec(1), OpType::kStat, sim::msec(2), true);
    metrics.record(sim::sec(1), OpType::kStat, sim::msec(2), false);
    EXPECT_EQ(metrics.completed(), 2u);
    EXPECT_EQ(metrics.failed(), 1u);
    EXPECT_DOUBLE_EQ(metrics.throughput().rate_at(1), 2.0);
    EXPECT_EQ(metrics.overall_latency().count(), 2u);
}

TEST(SystemMetrics, SplitsReadAndWriteLatency)
{
    workload::SystemMetrics metrics;
    metrics.record(0, OpType::kReadFile, sim::msec(1), true);
    metrics.record(0, OpType::kLs, sim::msec(1), true);
    metrics.record(0, OpType::kCreateFile, sim::msec(10), true);
    metrics.record(0, OpType::kMv, sim::msec(10), true);
    EXPECT_EQ(metrics.read_latency().count(), 2u);
    EXPECT_EQ(metrics.write_latency().count(), 2u);
    EXPECT_LT(metrics.read_latency().mean(), metrics.write_latency().mean());
    EXPECT_EQ(metrics.latency(OpType::kReadFile).count(), 1u);
}

TEST(SystemMetrics, ActiveNodeSamplesAverageWithinBins)
{
    workload::SystemMetrics metrics;
    metrics.sample_active_nodes(sim::msec(100), 10);
    metrics.sample_active_nodes(sim::msec(600), 20);
    EXPECT_DOUBLE_EQ(metrics.active_nodes().mean_at(0), 15.0);
}

TEST(SystemMetrics, AverageThroughputOverWindow)
{
    workload::SystemMetrics metrics;
    for (int i = 0; i < 500; ++i) {
        metrics.record(sim::msec(i * 10), OpType::kStat, sim::usec(500),
                       true);
    }
    EXPECT_NEAR(metrics.average_throughput(sim::sec(5)), 100.0, 1e-9);
    EXPECT_DOUBLE_EQ(metrics.average_throughput(0), 0.0);
}

}  // namespace
}  // namespace lfs
