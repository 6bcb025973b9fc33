/**
 * @file
 * Tests for the FaaS platform model: resource pool accounting, instance
 * lifecycle (cold start, concurrency, idle reclamation, kill), deployment
 * admission/scale-out, and billing accounting.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/faas/platform.h"
#include "src/net/network.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"

namespace lfs::faas {
namespace {

using sim::Simulation;
using sim::Task;

/** Test app: burns a fixed CPU time and echoes the op path length. */
class SleepApp : public FunctionApp {
  public:
    SleepApp(FunctionInstance& instance, sim::SimTime cpu)
        : instance_(instance), cpu_(cpu)
    {
    }

    Task<OpResult>
    handle(Invocation inv) override
    {
        co_await instance_.compute(cpu_);
        OpResult result;
        result.status = Status::make_ok();
        result.inode.size = static_cast<int64_t>(inv.op.path.size());
        co_return result;
    }

  private:
    FunctionInstance& instance_;
    sim::SimTime cpu_;
};

AppFactory
sleep_app_factory(sim::SimTime cpu)
{
    return [cpu](FunctionInstance& inst) {
        return std::make_unique<SleepApp>(inst, cpu);
    };
}

struct FaasFixture {
    explicit FaasFixture(double vcpus = 64.0)
        : network(sim, sim::Rng(11)),
          platform(sim, network, sim::Rng(12), PlatformConfig{vcpus, {}})
    {
    }

    Simulation sim;
    net::Network network;
    Platform platform;
};

Invocation
make_invocation(const std::string& p)
{
    Invocation inv;
    inv.op.type = OpType::kStat;
    inv.op.path = p;
    return inv;
}

Task<void>
co_invoke(FunctionDeployment& deployment, Invocation inv, OpResult& out)
{
    out = co_await deployment.invoke_via_gateway(std::move(inv));
}

TEST(ResourcePool, AllocatesWithinCapacity)
{
    ResourcePool pool(10.0);
    EXPECT_TRUE(pool.try_allocate(6.0));
    EXPECT_FALSE(pool.try_allocate(5.0));
    EXPECT_TRUE(pool.try_allocate(4.0));
    EXPECT_DOUBLE_EQ(pool.available(), 0.0);
    pool.release(6.0);
    EXPECT_TRUE(pool.try_allocate(6.0));
    EXPECT_DOUBLE_EQ(pool.peak_used(), 10.0);
}

TEST(Deployment, FirstInvocationColdStarts)
{
    FaasFixture f;
    FunctionConfig config;
    config.vcpus = 4.0;
    auto& d = f.platform.create_deployment("nn0", config,
                                           sleep_app_factory(sim::usec(200)));
    OpResult result;
    sim::spawn(co_invoke(d, make_invocation("/x"), result));
    // Run past the request but before the idle-reclamation deadline.
    f.sim.run_until(sim::sec(10));
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(d.cold_starts(), 1u);
    EXPECT_EQ(d.alive_count(), 1);
}

TEST(Deployment, WarmInstanceReused)
{
    FaasFixture f;
    auto& d = f.platform.create_deployment(
        "nn0", FunctionConfig{}, sleep_app_factory(sim::usec(200)));
    OpResult r1;
    OpResult r2;
    sim::spawn(co_invoke(d, make_invocation("/a"), r1));
    f.sim.run_until(sim::sec(5));
    ASSERT_TRUE(r1.status.ok());
    sim::spawn(co_invoke(d, make_invocation("/b"), r2));
    // A warm invocation completes within ~2 gateway hops + service, far
    // below the cold-start minimum.
    f.sim.run_until(f.sim.now() + sim::msec(100));
    EXPECT_TRUE(r2.status.ok());
    EXPECT_EQ(d.cold_starts(), 1u);  // no second cold start
}

TEST(Deployment, ScalesOutWhenConcurrencySaturated)
{
    FaasFixture f;
    FunctionConfig config;
    config.vcpus = 4.0;
    config.concurrency_level = 2;
    // Long-running requests force concurrent arrivals onto new instances.
    auto& d = f.platform.create_deployment("nn0", config,
                                           sleep_app_factory(sim::msec(500)));
    std::vector<OpResult> results(8);
    for (int i = 0; i < 8; ++i) {
        sim::spawn(co_invoke(d, make_invocation("/x"), results[i]));
    }
    f.sim.run();
    for (const auto& r : results) {
        EXPECT_TRUE(r.status.ok());
    }
    // 8 concurrent requests / 2 per instance => 4 instances.
    EXPECT_EQ(d.cold_starts(), 4u);
}

TEST(Deployment, ResourceCapLimitsScaleOutAndQueues)
{
    FaasFixture f(8.0);  // room for exactly 2 instances of 4 vCPUs
    FunctionConfig config;
    config.vcpus = 4.0;
    config.concurrency_level = 1;
    auto& d = f.platform.create_deployment("nn0", config,
                                           sleep_app_factory(sim::msec(100)));
    std::vector<OpResult> results(6);
    for (int i = 0; i < 6; ++i) {
        sim::spawn(co_invoke(d, make_invocation("/x"), results[i]));
    }
    f.sim.run();
    for (const auto& r : results) {
        EXPECT_TRUE(r.status.ok());
    }
    EXPECT_EQ(d.cold_starts(), 2u);
    EXPECT_LE(f.platform.pool().peak_used(), 8.0);
}

TEST(Deployment, MaxInstancesRespected)
{
    FaasFixture f;
    FunctionConfig config;
    config.concurrency_level = 1;
    auto& d = f.platform.create_deployment("nn0", config,
                                           sleep_app_factory(sim::msec(50)));
    d.set_max_instances(1);
    std::vector<OpResult> results(5);
    for (int i = 0; i < 5; ++i) {
        sim::spawn(co_invoke(d, make_invocation("/x"), results[i]));
    }
    f.sim.run();
    EXPECT_EQ(d.cold_starts(), 1u);
    for (const auto& r : results) {
        EXPECT_TRUE(r.status.ok());
    }
}

TEST(Instance, IdleReclamationFreesResources)
{
    FaasFixture f;
    FunctionConfig config;
    config.vcpus = 4.0;
    config.idle_reclaim = sim::sec(5);
    auto& d = f.platform.create_deployment("nn0", config,
                                           sleep_app_factory(sim::usec(100)));
    OpResult result;
    sim::spawn(co_invoke(d, make_invocation("/x"), result));
    // Run just past the request but before the 5s idle deadline.
    f.sim.run_until(sim::sec(3));
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(d.alive_count(), 1);
    double used_before = f.platform.pool().used();
    EXPECT_GT(used_before, 0.0);
    // No more traffic: instance must be reclaimed ~5s after last activity.
    f.sim.run_until(f.sim.now() + sim::sec(20));
    f.sim.run();
    EXPECT_EQ(d.alive_count(), 0);
    EXPECT_DOUBLE_EQ(f.platform.pool().used(), 0.0);
    EXPECT_EQ(d.reclamations(), 1u);
}

TEST(Instance, ActivityDefersReclamation)
{
    FaasFixture f;
    FunctionConfig config;
    config.idle_reclaim = sim::sec(5);
    auto& d = f.platform.create_deployment("nn0", config,
                                           sleep_app_factory(sim::usec(100)));
    // Send a request every 2 seconds for 20 seconds: never idle long
    // enough to be reclaimed.
    std::vector<OpResult> results(10);
    for (int i = 0; i < 10; ++i) {
        f.sim.schedule(sim::sec(2) * i, [&d, &results, i] {
            sim::spawn(co_invoke(d, make_invocation("/x"), results[i]));
        });
    }
    f.sim.run_until(sim::sec(21));
    EXPECT_EQ(d.alive_count(), 1);
    f.sim.run();
    EXPECT_EQ(d.alive_count(), 0);
}

TEST(Instance, SupersededIdleChecksAreDroppedNotRun)
{
    FaasFixture f;
    FunctionConfig config;
    config.idle_reclaim = sim::sec(5);
    auto& d = f.platform.create_deployment("nn0", config,
                                           sleep_app_factory(sim::usec(100)));
    std::vector<OpResult> results(10);
    for (int i = 0; i < 10; ++i) {
        f.sim.schedule(sim::sec(2) * i, [&d, &results, i] {
            sim::spawn(co_invoke(d, make_invocation("/x"), results[i]));
        });
    }
    f.sim.run_until(sim::sec(19));
    // Each request's end re-armed the idle check; every earlier check
    // saw activity move past its snapshot and was cancelled, so only
    // the newest is still queued.
    EXPECT_EQ(f.sim.pending(), 1u);
    ASSERT_EQ(d.alive_count(), 1);
    const sim::SimTime last = d.alive_instances().front()->last_activity();
    f.sim.run_until(last + sim::sec(5) - 1);
    EXPECT_EQ(d.alive_count(), 1);
    f.sim.run_until(last + sim::sec(5));
    EXPECT_EQ(d.alive_count(), 0);
    EXPECT_EQ(f.sim.pending(), 0u);
}

TEST(Instance, KillMarksRequestsUnavailable)
{
    FaasFixture f;
    auto& d = f.platform.create_deployment(
        "nn0", FunctionConfig{}, sleep_app_factory(sim::msec(500)));
    OpResult warmup;
    sim::spawn(co_invoke(d, make_invocation("/x"), warmup));
    f.sim.run();
    ASSERT_TRUE(warmup.status.ok());

    OpResult victim;
    sim::spawn(co_invoke(d, make_invocation("/y"), victim));
    // Kill the instance mid-request.
    f.sim.schedule(sim::msec(100), [&d] { d.kill_one(); });
    f.sim.run();
    EXPECT_EQ(victim.status.code(), Code::kUnavailable);
    EXPECT_EQ(d.alive_count(), 0);
}

TEST(Instance, BillingTracksBusyTimeOnly)
{
    FaasFixture f;
    FunctionConfig config;
    config.idle_reclaim = 0;  // disable reclamation for exact accounting
    auto& d = f.platform.create_deployment("nn0", config,
                                           sleep_app_factory(sim::msec(10)));
    OpResult r1;
    sim::spawn(co_invoke(d, make_invocation("/a"), r1));
    f.sim.run();
    sim::SimTime busy_after_one = d.total_busy_time();
    EXPECT_GE(busy_after_one, sim::msec(10));
    EXPECT_LT(busy_after_one, sim::msec(20));

    // A long quiet period must not add busy time, but does add
    // provisioned time.
    f.sim.run_until(f.sim.now() + sim::sec(60));
    EXPECT_EQ(d.total_busy_time(), busy_after_one);
    EXPECT_GT(d.total_provisioned_time(), sim::sec(59));
    EXPECT_EQ(d.total_requests(), 1u);
}

TEST(Instance, CpuModelLimitsParallelism)
{
    FaasFixture f;
    FunctionConfig config;
    config.vcpus = 2.0;
    config.concurrency_level = 16;
    auto& d = f.platform.create_deployment("nn0", config,
                                           sleep_app_factory(sim::msec(100)));
    // Warm up with one request.
    OpResult warm;
    sim::spawn(co_invoke(d, make_invocation("/w"), warm));
    f.sim.run();
    sim::SimTime start = f.sim.now();
    // 8 requests on 2 cores at 100ms each => at least 400ms.
    std::vector<OpResult> results(8);
    for (int i = 0; i < 8; ++i) {
        sim::spawn(co_invoke(d, make_invocation("/x"), results[i]));
    }
    f.sim.run();
    EXPECT_GE(f.sim.now() - start, sim::msec(400));
}

TEST(Platform, CreatesDenselyNumberedDeployments)
{
    FaasFixture f;
    auto& d0 = f.platform.create_deployment("a", FunctionConfig{},
                                            sleep_app_factory(1));
    auto& d1 = f.platform.create_deployment("b", FunctionConfig{},
                                            sleep_app_factory(1));
    EXPECT_EQ(d0.id(), 0);
    EXPECT_EQ(d1.id(), 1);
    EXPECT_EQ(f.platform.deployment_count(), 2);
    EXPECT_EQ(&f.platform.deployment(1), &d1);
}

}  // namespace
}  // namespace lfs::faas
