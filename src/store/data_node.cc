#include "src/store/data_node.h"

#include <string>

#include "src/sim/fault.h"

namespace lfs::store {

namespace {

sim::Counter&
shed_counter(sim::Simulation& sim, int shard_id, const char* reason)
{
    return sim.metrics().counter("overload.store_shed",
                                 {{"shard", std::to_string(shard_id)},
                                  {"reason", reason}});
}

}  // namespace

DataNode::DataNode(sim::Simulation& sim, sim::Rng rng, DataNodeConfig config,
                   util::OverloadControlConfig overload, int shard_id)
    : sim_(sim),
      rng_(rng),
      config_(config),
      overload_(overload),
      shard_id_(shard_id),
      read_slots_(sim, config.concurrency),
      write_slots_(sim, config.concurrency),
      shed_expired_(shed_counter(sim, shard_id, "expired")),
      shed_queue_full_(shed_counter(sim, shard_id, "queue_full")),
      shed_sojourn_(shed_counter(sim, shard_id, "sojourn")),
      shed_fail_fast_(shed_counter(sim, shard_id, "fail_fast")),
      sojourn_hist_(sim.metrics().histogram(
          "overload.store_sojourn", {{"shard", std::to_string(shard_id)}}))
{
}

sim::Task<void>
DataNode::stall_while_down()
{
    sim::FaultPlan* plan = sim_.fault_plan();
    if (plan == nullptr || !plan->store_shard_down(shard_id_)) {
        co_return;
    }
    plan->note_store_stall(shard_id_);
    while (plan->store_shard_down(shard_id_)) {
        co_await sim::delay(sim_, sim::msec(1));
    }
}

sim::Task<Status>
DataNode::admit_and_serve(sim::Semaphore& slots, sim::SimTime base_service,
                          sim::Counter& served, sim::SimTime deadline,
                          sim::LatencyLedger& ledger)
{
    sim::SimTime entry = sim_.now();
    sim::FaultPlan* plan = sim_.fault_plan();
    if (plan != nullptr && plan->store_shard_down(shard_id_)) {
        if (overload_.enabled) {
            // Fail fast so the caller's circuit breaker can open instead
            // of the outage tying up NameNode concurrency slots.
            shed_fail_fast_.add();
            plan->note_store_stall(shard_id_);
            co_return Status::unavailable("store shard down: " +
                                          std::to_string(shard_id_));
        }
        co_await stall_while_down();
    }
    // Deadline admission: reject work whose remaining budget cannot cover
    // even the minimum service time — it is doomed, shed it now.
    if (deadline >= 0 && sim_.now() + base_service > deadline) {
        shed_expired_.add();
        co_return Status::deadline_exceeded("expired at store admission");
    }
    if (overload_.enabled &&
        slots.waiting() >= static_cast<size_t>(util::kStoreQueueDepth)) {
        shed_queue_full_.add();
        co_return Status::resource_exhausted("store shard queue full");
    }
    sim::SimTime enqueued = sim_.now();
    co_await slots.acquire();
    sim::SemaphoreGuard guard(slots);
    sim::SimTime sojourn = sim_.now() - enqueued;
    sojourn_hist_.record(sojourn);
    // Expired-in-queue / CoDel shedding: drop stale work at dequeue, when
    // shedding still frees capacity for fresher requests.
    if (deadline >= 0 && sim_.now() + base_service > deadline) {
        shed_expired_.add();
        co_return Status::deadline_exceeded("expired in store queue");
    }
    if (overload_.enabled && sojourn > overload_.store_sojourn_limit) {
        shed_sojourn_.add();
        co_return Status::resource_exhausted("store queue sojourn overrun");
    }
    sim::SimTime service = base_service;
    if (plan != nullptr) {
        double multiplier = plan->store_service_multiplier(shard_id_);
        if (multiplier != 1.0) {
            service = static_cast<sim::SimTime>(
                static_cast<double>(service) * multiplier);
        }
    }
    // Everything up to the service start — outage stalls plus the slot
    // sojourn — is queueing from the caller's perspective.
    ledger.add(sim::LatSeg::kStoreQueue, sim_.now() - entry);
    co_await sim::delay(sim_, service);
    ledger.add(sim::LatSeg::kStoreService, service);
    busy_time_ += service;
    served.add();
    co_return Status::make_ok();
}

sim::Task<Status>
DataNode::execute_read(sim::LatencyLedger& ledger, int components,
                       sim::SimTime deadline)
{
    sim::SimTime service =
        rng_.uniform_duration(config_.read_service_min,
                              config_.read_service_max) +
        config_.per_component_cost * std::max(0, components - 1);
    Status st = co_await admit_and_serve(read_slots_, service, reads_,
                                         deadline, ledger);
    co_return st;
}

sim::Task<Status>
DataNode::execute_write(sim::LatencyLedger& ledger, int rows,
                        sim::SimTime deadline)
{
    sim::SimTime service =
        rng_.uniform_duration(config_.write_service_min,
                              config_.write_service_max) +
        config_.per_component_cost * std::max(0, rows - 1);
    Status st = co_await admit_and_serve(write_slots_, service, writes_,
                                         deadline, ledger);
    co_return st;
}

size_t
DataNode::queue_depth() const
{
    return read_slots_.waiting() + write_slots_.waiting();
}

}  // namespace lfs::store
