/**
 * @file
 * The pluggable "Coordinator" service (ZooKeeper / NDB in the paper, §3.5):
 * tracks which cache members (NameNode instances) are alive in which
 * deployment groups, and mediates the INV/ACK rounds of the λFS coherence
 * protocol. Members that terminate mid-protocol are excused from ACKing
 * (Algorithm 1, step 1).
 */
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/network.h"
#include "src/sim/primitives.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"

namespace lfs::coord {

/** A cache-holding participant in the coherence protocol. */
class CacheMember {
  public:
    virtual ~CacheMember() = default;

    /** Liveness as observed by the coordinator. */
    virtual bool member_alive() const = 0;

    /**
     * Deliver an invalidation for @p path (point) or the subtree rooted
     * at @p path (when @p subtree). Returning completes the ACK.
     */
    virtual sim::Task<void> deliver_invalidation(std::string path,
                                                 bool subtree) = 0;
};

/**
 * How long the leader waits for a member's ACK before retransmitting the
 * INV. Generous versus the ~0.3-0.8 ms healthy coord round trip, tight
 * versus the client-visible write timeout so a lossy network converges
 * within one client attempt.
 */
inline constexpr sim::SimTime kAckTimeout = sim::msec(25);
/** Cap for the exponential INV retransmission backoff. */
inline constexpr sim::SimTime kRetransmitBackoffMax = sim::msec(400);

class Coordinator {
  public:
    Coordinator(sim::Simulation& sim, net::Network& network);

    /** Register @p member as alive in @p group. */
    void join(int group, CacheMember* member);

    /** Remove @p member from @p group (death or reclamation). */
    void leave(int group, CacheMember* member);

    /** Live members currently registered in @p group. */
    size_t group_size(int group) const;

    /** Total live members across all groups. */
    size_t total_members() const;

    /** One invalidation to deliver to every member of one group. */
    struct InvTarget {
        int group;
        std::string path;
        bool subtree = false;
    };

    /**
     * Run one coherence round: for each target, send an INV (with the
     * path payload) to every live member of the target's group except
     * @p exclude (the leader invalidates locally), then wait for all
     * ACKs. Each INV/ACK pays a coordinator network round trip; targets
     * fan out in parallel. @p ctx parents the round's trace span to the
     * triggering write. @p targets is borrowed and must outlive the
     * round: callers await it in the full-expression that passes them,
     * so a caller-owned buffer can be refilled for the next round.
     */
    sim::Task<void> invalidate(std::span<const InvTarget> targets,
                               CacheMember* exclude,
                               sim::TraceContext ctx = {});

    uint64_t invs_sent() const { return invs_.value(); }
    uint64_t rounds() const { return rounds_.value(); }
    uint64_t retransmits() const { return retransmits_.value(); }

  private:
    /**
     * Reliable INV delivery to one member: attempts repeat with an
     * ack-timeout + exponential backoff until either an ACK arrives or
     * the member is observed dead (dead members are excused from ACKing,
     * Algorithm 1 step 1). Loss of the INV or of the ACK — injected by an
     * installed FaultPlan, including partitions of the member's group —
     * therefore delays but never skips an invalidation: the write holds
     * its exclusive store locks until every live member has ACKed.
     * @p path points into the round's targets, which outlive @p wg.
     */
    sim::Task<void> deliver_one(int group, CacheMember* member,
                                const std::string& path, bool subtree,
                                sim::WaitGroup* wg);

    /** One INV/ACK attempt. @return true when the leader saw the ACK. */
    sim::Task<bool> try_deliver(int group, CacheMember* member,
                                const std::string& path, bool subtree);

    /** Redundant delivery of a duplicated INV (invalidation is idempotent). */
    sim::Task<void> deliver_duplicate(CacheMember* member, std::string path,
                                      bool subtree);

    sim::Simulation& sim_;
    net::Network& network_;
    std::unordered_map<int, std::vector<CacheMember*>> groups_;
    /** Bumped by every join/leave; invalidate() asserts its fan-out
        loop over a live member list sees none. */
    uint64_t membership_generation_ = 0;
    // Registry-owned (exported via --metrics-out).
    sim::Counter& invs_;
    sim::Counter& rounds_;
    sim::Counter& retransmits_;
};

}  // namespace lfs::coord
