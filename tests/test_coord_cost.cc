/**
 * @file
 * Tests for the Coordinator (membership + INV/ACK rounds) and the
 * monetary cost models.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/coord/coordinator.h"
#include "src/cost/pricing.h"
#include "src/net/network.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"

namespace lfs {
namespace {

using sim::Simulation;
using sim::Task;

/** Records invalidations; liveness is switchable. */
class FakeMember : public coord::CacheMember {
  public:
    explicit FakeMember(Simulation& sim) : sim_(sim) {}

    bool member_alive() const override { return alive; }

    Task<void>
    deliver_invalidation(std::string path, bool subtree) override
    {
        co_await sim::delay(sim_, sim::usec(50));
        received.emplace_back(std::move(path), subtree);
    }

    bool alive = true;
    std::vector<std::pair<std::string, bool>> received;

  private:
    Simulation& sim_;
};

struct CoordFixture {
    Simulation sim;
    net::Network network{sim, sim::Rng(5)};
    coord::Coordinator coordinator{sim, network};
};

Task<void>
co_invalidate(coord::Coordinator& coordinator, std::vector<int> groups,
              std::string p, bool subtree, coord::CacheMember* exclude,
              bool& done)
{
    std::vector<coord::Coordinator::InvTarget> targets;
    for (int g : groups) {
        targets.push_back(coord::Coordinator::InvTarget{g, p, subtree});
    }
    co_await coordinator.invalidate(std::move(targets), exclude);
    done = true;
}

TEST(Coordinator, MembershipJoinLeave)
{
    CoordFixture f;
    FakeMember a(f.sim);
    FakeMember b(f.sim);
    f.coordinator.join(0, &a);
    f.coordinator.join(0, &a);  // idempotent
    f.coordinator.join(1, &b);
    EXPECT_EQ(f.coordinator.group_size(0), 1u);
    EXPECT_EQ(f.coordinator.total_members(), 2u);
    f.coordinator.leave(0, &a);
    EXPECT_EQ(f.coordinator.group_size(0), 0u);
}

TEST(Coordinator, InvalidateReachesAllGroupMembers)
{
    CoordFixture f;
    FakeMember a(f.sim);
    FakeMember b(f.sim);
    FakeMember c(f.sim);
    f.coordinator.join(0, &a);
    f.coordinator.join(0, &b);
    f.coordinator.join(1, &c);
    bool done = false;
    sim::spawn(co_invalidate(f.coordinator, {0, 1}, "/d/f", false, nullptr,
                             done));
    f.sim.run();
    EXPECT_TRUE(done);
    ASSERT_EQ(a.received.size(), 1u);
    EXPECT_EQ(a.received[0].first, "/d/f");
    EXPECT_FALSE(a.received[0].second);
    EXPECT_EQ(b.received.size(), 1u);
    EXPECT_EQ(c.received.size(), 1u);
    EXPECT_EQ(f.coordinator.invs_sent(), 3u);
    EXPECT_EQ(f.coordinator.rounds(), 1u);
}

TEST(Coordinator, LeaderIsExcluded)
{
    CoordFixture f;
    FakeMember leader(f.sim);
    FakeMember follower(f.sim);
    f.coordinator.join(0, &leader);
    f.coordinator.join(0, &follower);
    bool done = false;
    sim::spawn(
        co_invalidate(f.coordinator, {0}, "/p", true, &leader, done));
    f.sim.run();
    EXPECT_TRUE(done);
    EXPECT_TRUE(leader.received.empty());
    ASSERT_EQ(follower.received.size(), 1u);
    EXPECT_TRUE(follower.received[0].second);  // subtree flag preserved
}

TEST(Coordinator, DeadMembersAreExcusedFromAcks)
{
    CoordFixture f;
    FakeMember alive_member(f.sim);
    FakeMember dead_member(f.sim);
    dead_member.alive = false;
    f.coordinator.join(0, &alive_member);
    f.coordinator.join(0, &dead_member);
    bool done = false;
    sim::spawn(co_invalidate(f.coordinator, {0}, "/x", false, nullptr, done));
    f.sim.run();
    EXPECT_TRUE(done);  // protocol completed despite the dead member
    EXPECT_TRUE(dead_member.received.empty());
    EXPECT_EQ(alive_member.received.size(), 1u);
}

/** After @p after, run @p action (a membership change mid-round). */
template <class F>
Task<void>
co_after(Simulation& sim, sim::SimTime after, F action)
{
    co_await sim::delay(sim, after);
    action();
}

TEST(Coordinator, MemberJoiningMidRoundGetsNoInv)
{
    // Round membership is fixed when the INVs are issued: a member that
    // joins while they are in flight reads post-write state from the
    // store, so it is neither sent an INV nor waited for.
    CoordFixture f;
    FakeMember a(f.sim);
    FakeMember b(f.sim);
    FakeMember late(f.sim);
    f.coordinator.join(0, &a);
    f.coordinator.join(0, &b);
    bool done = false;
    bool joined = false;
    sim::spawn(co_invalidate(f.coordinator, {0}, "/d/f", false, nullptr,
                             done));
    sim::spawn(co_after(f.sim, sim::usec(10), [&] {
        EXPECT_FALSE(done);
        f.coordinator.join(0, &late);
        joined = true;
    }));
    f.sim.run();
    EXPECT_TRUE(joined);
    EXPECT_TRUE(done);
    EXPECT_EQ(a.received.size(), 1u);
    EXPECT_EQ(b.received.size(), 1u);
    EXPECT_TRUE(late.received.empty());
    EXPECT_EQ(f.coordinator.invs_sent(), 2u);
    EXPECT_EQ(f.coordinator.group_size(0), 3u);
}

TEST(Coordinator, MemberLeavingMidRoundIsExcused)
{
    // A member that terminates and leaves its group while its INV is in
    // flight is excused from ACKing; the round completes on the others.
    CoordFixture f;
    FakeMember a(f.sim);
    FakeMember leaving(f.sim);
    FakeMember c(f.sim);
    f.coordinator.join(0, &a);
    f.coordinator.join(0, &leaving);
    f.coordinator.join(0, &c);
    bool done = false;
    bool left = false;
    sim::spawn(co_invalidate(f.coordinator, {0}, "/d/f", false, nullptr,
                             done));
    sim::spawn(co_after(f.sim, sim::usec(10), [&] {
        EXPECT_FALSE(done);
        leaving.alive = false;
        f.coordinator.leave(0, &leaving);
        left = true;
    }));
    f.sim.run();
    EXPECT_TRUE(left);
    EXPECT_TRUE(done);
    EXPECT_EQ(a.received.size(), 1u);
    EXPECT_EQ(c.received.size(), 1u);
    EXPECT_TRUE(leaving.received.empty());
    EXPECT_EQ(f.coordinator.group_size(0), 2u);
}

TEST(Coordinator, EmptyGroupsCompleteImmediately)
{
    CoordFixture f;
    bool done = false;
    sim::spawn(co_invalidate(f.coordinator, {0, 7}, "/x", false, nullptr,
                             done));
    f.sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(f.coordinator.invs_sent(), 0u);
}

// ---------------------------------------------------------------------
// Cost models
// ---------------------------------------------------------------------

TEST(Pricing, LambdaCostMatchesPublishedRates)
{
    // 30 GB busy for 10 seconds = 300 GB-s; 1M requests.
    double busy_gb_us = 30.0 * 10.0 * 1e6;
    double c = cost::lambda_cost(busy_gb_us, 1'000'000);
    EXPECT_NEAR(c, 300.0 * 0.0000166667 + 0.20, 1e-9);
}

TEST(Pricing, VmCostMatchesHourlyRate)
{
    // 512 vCPUs for one hour at $1.008 per 16 vCPUs.
    double c = cost::vm_cost(512.0, sim::sec(3600));
    EXPECT_NEAR(c, 512.0 / 16.0 * 1.008, 1e-9);
}

TEST(Pricing, SimplifiedModelChargesProvisionedTime)
{
    // Provisioned 2x the busy time => 2x the GB-time cost component.
    double busy = 10.0 * 1e6;
    double provisioned = 20.0 * 1e6;
    EXPECT_GT(cost::simplified_cost(provisioned, 0),
              cost::lambda_cost(busy, 0));
}

TEST(Pricing, PerfPerCostGuardsZero)
{
    EXPECT_DOUBLE_EQ(cost::perf_per_cost(1000.0, 0.0), 0.0);
    EXPECT_NEAR(cost::perf_per_cost(1000.0, 0.5), 2000.0, 1e-9);
}

}  // namespace
}  // namespace lfs
