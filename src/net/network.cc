#include "src/net/network.h"

#include <cassert>

namespace lfs::net {

Network::Network(sim::Simulation& sim, sim::Rng rng, NetworkConfig config)
    : sim_(sim), rng_(rng), config_(config)
{
}

const LatencyModel&
Network::model(LatencyClass cls) const
{
    switch (cls) {
      case LatencyClass::kLocal:
        return config_.local;
      case LatencyClass::kTcp:
        return config_.tcp;
      case LatencyClass::kHttpGateway:
        return config_.http;
      case LatencyClass::kStore:
        return config_.store;
      case LatencyClass::kCoord:
        return config_.coord;
      case LatencyClass::kCount:
        break;
    }
    assert(false && "bad latency class");
    return config_.local;
}

sim::SimTime
Network::sample(LatencyClass cls)
{
    const LatencyModel& m = model(cls);
    ++sent_[static_cast<size_t>(cls)];
    return rng_.uniform_duration(m.min, m.max);
}

namespace {

/** Fault channel a latency class maps to for delay-fault targeting. */
sim::FaultChannel
fault_channel_for(LatencyClass cls)
{
    switch (cls) {
      case LatencyClass::kLocal:
      case LatencyClass::kTcp:
        return sim::FaultChannel::kClientRpc;
      case LatencyClass::kHttpGateway:
        return sim::FaultChannel::kGateway;
      case LatencyClass::kStore:
        return sim::FaultChannel::kStore;
      case LatencyClass::kCoord:
      case LatencyClass::kCount:
        break;
    }
    return sim::FaultChannel::kCoordInv;
}

/** Ledger segment a stamped hop of class @p cls is charged to. */
sim::LatSeg
segment_for(LatencyClass cls)
{
    switch (cls) {
      case LatencyClass::kHttpGateway:
        return sim::LatSeg::kNetGateway;
      case LatencyClass::kStore:
        return sim::LatSeg::kNetStore;
      case LatencyClass::kCoord:
        return sim::LatSeg::kCoherence;
      case LatencyClass::kLocal:
      case LatencyClass::kTcp:
      case LatencyClass::kCount:
        break;
    }
    return sim::LatSeg::kNetClient;
}

}  // namespace

sim::SimTime
Network::hop_latency(LatencyClass cls)
{
    sim::SimTime latency = sample(cls);
    if (sim::FaultPlan* plan = sim_.fault_plan()) {
        latency += plan->message_delay(fault_channel_for(cls));
    }
    return latency;
}

sim::Task<void>
Network::transfer(LatencyClass cls)
{
    co_await sim::delay(sim_, hop_latency(cls));
}

sim::Task<void>
Network::transfer(LatencyClass cls, sim::LatencyLedger& ledger)
{
    const sim::SimTime latency = hop_latency(cls);
    co_await sim::delay(sim_, latency);
    ledger.add(segment_for(cls), latency);
}

sim::Task<void>
Network::round_trip(LatencyClass cls)
{
    co_await transfer(cls);
    co_await transfer(cls);
}

sim::MessageFaultDecision
Network::message_fault(sim::FaultChannel channel,
                       sim::MessageDirection direction, int group)
{
    sim::FaultPlan* plan = sim_.fault_plan();
    if (plan == nullptr) {
        return {};
    }
    return plan->on_message(channel, direction, group);
}

uint64_t
Network::messages(LatencyClass cls) const
{
    return sent_[static_cast<size_t>(cls)];
}

}  // namespace lfs::net
