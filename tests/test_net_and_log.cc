/**
 * @file
 * Remaining small-surface coverage: network round trips, message
 * accounting and ledger-stamped hops, logging level gating, and SimTime
 * conversion helpers.
 */
#include <gtest/gtest.h>

#include "src/net/network.h"
#include "src/sim/log.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace lfs {
namespace {

using sim::Simulation;
using sim::Task;

TEST(SimTime, ConversionsRoundTrip)
{
    EXPECT_EQ(sim::msec(3), 3000);
    EXPECT_EQ(sim::sec(2), 2'000'000);
    EXPECT_DOUBLE_EQ(sim::to_sec(sim::sec(5)), 5.0);
    EXPECT_DOUBLE_EQ(sim::to_msec(sim::msec(7)), 7.0);
    EXPECT_EQ(sim::from_msec(2.5), 2500);
    EXPECT_EQ(sim::from_sec(0.001), 1000);
}

Task<void>
co_round_trip(net::Network& network, net::LatencyClass cls)
{
    co_await network.round_trip(cls);
}

TEST(Network, RoundTripTakesTwoSamplesOfTime)
{
    Simulation sim;
    net::NetworkConfig config;
    config.tcp = {sim::usec(100), sim::usec(100)};  // deterministic
    net::Network network(sim, sim::Rng(1), config);
    sim::spawn(co_round_trip(network, net::LatencyClass::kTcp));
    sim.run();
    EXPECT_EQ(sim.now(), sim::usec(200));
    EXPECT_EQ(network.messages(net::LatencyClass::kTcp), 2u);
    EXPECT_EQ(network.messages(net::LatencyClass::kHttpGateway), 0u);
}

TEST(Network, TransfersAdvanceIndependently)
{
    Simulation sim;
    net::NetworkConfig config;
    config.coord = {sim::usec(50), sim::usec(50)};
    net::Network network(sim, sim::Rng(2), config);
    // Two concurrent transfers overlap: total elapsed is one latency,
    // not two.
    sim::spawn(co_round_trip(network, net::LatencyClass::kCoord));
    sim::spawn(co_round_trip(network, net::LatencyClass::kCoord));
    sim.run();
    EXPECT_EQ(sim.now(), sim::usec(100));
    EXPECT_EQ(network.messages(net::LatencyClass::kCoord), 4u);
}

Task<void>
co_stamped_hops(net::Network& network, sim::LatencyLedger& ledger)
{
    co_await network.transfer(net::LatencyClass::kTcp, ledger);
    co_await network.transfer(net::LatencyClass::kHttpGateway, ledger);
    co_await network.transfer(net::LatencyClass::kStore, ledger);
    co_await network.transfer(net::LatencyClass::kStore, ledger);
}

TEST(Network, StampedTransferChargesItsHopToItsClassSegment)
{
    Simulation sim;
    net::NetworkConfig config;
    config.tcp = {sim::usec(100), sim::usec(100)};
    config.http = {sim::usec(300), sim::usec(300)};
    config.store = {sim::usec(40), sim::usec(40)};
    net::Network network(sim, sim::Rng(3), config);
    sim::LatencyLedger ledger;
    sim::spawn(co_stamped_hops(network, ledger));
    sim.run();
    EXPECT_EQ(ledger.get(sim::LatSeg::kNetClient), sim::usec(100));
    EXPECT_EQ(ledger.get(sim::LatSeg::kNetGateway), sim::usec(300));
    EXPECT_EQ(ledger.get(sim::LatSeg::kNetStore), sim::usec(80));
    EXPECT_EQ(ledger.total(), sim.now());
}

TEST(Log, LevelGatingSuppressesBelowThreshold)
{
    sim::LogLevel original = sim::log_level();
    sim::set_log_level(sim::LogLevel::kError);
    EXPECT_FALSE(sim::log_enabled(sim::LogLevel::kDebug));
    EXPECT_FALSE(sim::log_enabled(sim::LogLevel::kWarn));
    EXPECT_TRUE(sim::log_enabled(sim::LogLevel::kError));
    sim::set_log_level(sim::LogLevel::kTrace);
    EXPECT_TRUE(sim::log_enabled(sim::LogLevel::kDebug));
    sim::set_log_level(sim::LogLevel::kOff);
    EXPECT_FALSE(sim::log_enabled(sim::LogLevel::kError));
    sim::set_log_level(original);
}

TEST(Log, MacroOnlyEvaluatesWhenEnabled)
{
    sim::LogLevel original = sim::log_level();
    sim::set_log_level(sim::LogLevel::kOff);
    Simulation sim;
    int evaluations = 0;
    auto expensive = [&evaluations] {
        ++evaluations;
        return "msg";
    };
    LFS_DEBUG(sim, "test", expensive());
    EXPECT_EQ(evaluations, 0);  // streamed expression never evaluated
    sim::set_log_level(original);
}

}  // namespace
}  // namespace lfs
