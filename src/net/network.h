/**
 * @file
 * Latency-modelled network fabric.
 *
 * The simulator does not model packets or bandwidth; DFS metadata messages
 * are small and the paper's performance effects come from per-message
 * latency and queueing at endpoints. Each message class has a jittered
 * one-way latency distribution; endpoints add their own service/queueing
 * time on top.
 */
#pragma once

#include <array>
#include <cstdint>

#include "src/sim/fault.h"
#include "src/sim/latency.h"
#include "src/sim/primitives.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace lfs::net {

/** Message classes with distinct latency characteristics. */
enum class LatencyClass {
    kLocal = 0,    ///< same-VM (client <-> its TCP server)
    kTcp,          ///< direct TCP RPC hop (client <-> NameNode)
    kHttpGateway,  ///< HTTP invocation through the FaaS API gateway
    kStore,        ///< NameNode <-> persistent metadata store hop
    kCoord,        ///< NameNode <-> coordinator hop
    kCount,
};

/** One-way latency distribution: uniform in [min, max]. */
struct LatencyModel {
    sim::SimTime min;
    sim::SimTime max;
};

/**
 * Default latencies calibrated to the paper's measurements: TCP RPCs see
 * 1-2 ms end-to-end (two hops plus service), HTTP RPCs 8-20 ms.
 */
struct NetworkConfig {
    LatencyModel local{sim::usec(5), sim::usec(25)};
    LatencyModel tcp{sim::usec(200), sim::usec(500)};
    LatencyModel http{sim::usec(3500), sim::usec(9000)};
    LatencyModel store{sim::usec(150), sim::usec(350)};
    LatencyModel coord{sim::usec(150), sim::usec(400)};
};

/** The shared fabric; all components transfer messages through it. */
class Network {
  public:
    Network(sim::Simulation& sim, sim::Rng rng, NetworkConfig config = {});

    /** Sample a one-way latency for @p cls (advances the RNG). */
    sim::SimTime sample(LatencyClass cls);

    /**
     * Suspend the calling process for one message delivery of class
     * @p cls. An installed FaultPlan may add an extra in-flight delay
     * (delay faults are safe to apply inline on every message; drops and
     * duplicates are not — see message_fault()).
     */
    sim::Task<void> transfer(LatencyClass cls);

    /**
     * transfer(), charging the hop to @p ledger's segment for @p cls
     * (kTcp → net_client, kHttpGateway → net_gateway, kStore →
     * net_store). Hops inside a coherence hook or an LSM service window
     * take the plain transfer(): that window is stamped whole.
     */
    sim::Task<void> transfer(LatencyClass cls, sim::LatencyLedger& ledger);

    /** Suspend for a full round trip (two one-way samples). */
    sim::Task<void> round_trip(LatencyClass cls);

    /**
     * Consult the installed FaultPlan for the fate of one message on
     * @p channel (no-fault defaults when no plan is installed). Callers
     * sit at protocol points with an end-to-end retry/timeout above them:
     * a "dropped" message simply never arrives and the caller's timeout
     * or ack-retransmission path resolves the silence. @p group, when
     * >= 0, is the remote endpoint's node group for partition checks.
     */
    sim::MessageFaultDecision message_fault(sim::FaultChannel channel,
                                            sim::MessageDirection direction,
                                            int group = -1);

    /** Messages sent so far in class @p cls. */
    uint64_t messages(LatencyClass cls) const;

    const NetworkConfig& config() const { return config_; }

  private:
    const LatencyModel& model(LatencyClass cls) const;

    /** sample(@p cls) plus any delay fault the installed plan adds. */
    sim::SimTime hop_latency(LatencyClass cls);

    sim::Simulation& sim_;
    sim::Rng rng_;
    NetworkConfig config_;
    std::array<uint64_t, static_cast<size_t>(LatencyClass::kCount)> sent_{};
};

}  // namespace lfs::net
