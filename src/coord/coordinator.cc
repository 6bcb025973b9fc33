#include "src/coord/coordinator.h"

#include <algorithm>
#include <cassert>

namespace lfs::coord {

Coordinator::Coordinator(sim::Simulation& sim, net::Network& network)
    : sim_(sim),
      network_(network),
      invs_(sim.metrics().counter("coord.invs")),
      rounds_(sim.metrics().counter("coord.rounds")),
      retransmits_(sim.metrics().counter("coord.retransmits"))
{
}

void
Coordinator::join(int group, CacheMember* member)
{
    auto& members = groups_[group];
    if (std::find(members.begin(), members.end(), member) == members.end()) {
        members.push_back(member);
        ++membership_generation_;
    }
}

void
Coordinator::leave(int group, CacheMember* member)
{
    auto it = groups_.find(group);
    if (it == groups_.end()) {
        return;
    }
    auto& members = it->second;
    members.erase(std::remove(members.begin(), members.end(), member),
                  members.end());
    ++membership_generation_;
}

size_t
Coordinator::group_size(int group) const
{
    auto it = groups_.find(group);
    return it == groups_.end() ? 0 : it->second.size();
}

size_t
Coordinator::total_members() const
{
    size_t total = 0;
    for (const auto& [group, members] : groups_) {
        total += members.size();
    }
    return total;
}

sim::Task<void>
Coordinator::deliver_duplicate(CacheMember* member, std::string path,
                               bool subtree)
{
    co_await network_.transfer(net::LatencyClass::kCoord);
    if (member->member_alive()) {
        co_await member->deliver_invalidation(std::move(path), subtree);
    }
}

sim::Task<bool>
Coordinator::try_deliver(int group, CacheMember* member,
                         const std::string& path, bool subtree)
{
    auto inv_fault = network_.message_fault(
        sim::FaultChannel::kCoordInv, sim::MessageDirection::kRequest, group);
    if (inv_fault.duplicate) {
        sim::spawn(deliver_duplicate(member, path, subtree));
    }
    // INV hop to the member (the leader pays the latency whether or not
    // the message survives — it learns of a loss only via the ack timeout).
    co_await network_.transfer(net::LatencyClass::kCoord);
    if (inv_fault.drop) {
        co_return false;
    }
    invs_.add();
    // A member that terminated mid-protocol is excused from ACKing.
    if (!member->member_alive()) {
        co_return true;
    }
    co_await member->deliver_invalidation(path, subtree);
    auto ack_fault = network_.message_fault(
        sim::FaultChannel::kCoordAck, sim::MessageDirection::kReply, group);
    // ACK hop back to the leader.
    co_await network_.transfer(net::LatencyClass::kCoord);
    co_return !ack_fault.drop;
}

sim::Task<void>
Coordinator::deliver_one(int group, CacheMember* member,
                         const std::string& path, bool subtree,
                         sim::WaitGroup* wg)
{
    sim::SimTime backoff = kAckTimeout;
    while (true) {
        if (!member->member_alive()) {
            break;  // excused: a dead member can't serve stale cache reads
        }
        bool acked = co_await try_deliver(group, member, path, subtree);
        if (acked) {
            break;
        }
        // Ack timeout elapsed with no ACK: retransmit with backoff. The
        // loop is bounded in practice by the member dying or the fault /
        // partition window closing; invalidation delivery is idempotent,
        // so an ACK lost after a successful delivery only costs time.
        retransmits_.add();
        co_await sim::delay(sim_, backoff);
        backoff = std::min(backoff * 2, kRetransmitBackoffMax);
    }
    wg->done();
}

sim::Task<void>
Coordinator::invalidate(std::span<const InvTarget> targets,
                        CacheMember* exclude, sim::TraceContext ctx)
{
    rounds_.add();
    sim::Span round_span =
        sim_.tracer().start_span("coord", "inv_round", ctx);
    round_span.annotate("targets", static_cast<int64_t>(targets.size()));
    sim::WaitGroup wg(sim_);
    // The round's membership is fixed here: every INV is spawned before
    // the first suspends, so members joining later get none (they read
    // the post-write state from the store) and one leaving mid-round is
    // excused by deliver_one. Each spawn runs only to its first network
    // hop, which never joins or leaves a group, so the live member list
    // is walked in place instead of copied.
    [[maybe_unused]] const uint64_t generation = membership_generation_;
    for (const InvTarget& target : targets) {
        auto it = groups_.find(target.group);
        if (it == groups_.end()) {
            continue;
        }
        for (CacheMember* member : it->second) {
            if (member == exclude) {
                continue;
            }
            wg.add();
            sim::spawn(deliver_one(target.group, member, target.path,
                                   target.subtree, &wg));
            assert(membership_generation_ == generation &&
                   "membership changed during the INV spawn loop");
        }
    }
    co_await wg.wait();
}

}  // namespace lfs::coord
