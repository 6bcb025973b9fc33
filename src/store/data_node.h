/**
 * @file
 * A single storage shard of the persistent metadata store (one "NDB data
 * node"): a finite-concurrency queueing server whose service times define
 * the store's read/write capacity. Queueing delay under load is what caps
 * HopsFS throughput in the paper's experiments.
 *
 * Admission is always deadline-aware: an op whose remaining budget cannot
 * cover even the minimum service time is rejected, and one that expires
 * while queued is shed when it reaches the head. Under overload control
 * admission is also bounded (util::kStoreQueueDepth per class) and
 * CoDel-style (work that waited longer than store_sojourn_limit is shed
 * at dequeue),
 * and during a FaultPlan outage the shard fails fast instead of stalling
 * admissions. A FaultPlan brownout multiplies service times.
 */
#pragma once

#include <cstdint>

#include "src/sim/latency.h"
#include "src/sim/primitives.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"
#include "src/util/overload.h"
#include "src/util/status.h"

namespace lfs::store {

/** Service characteristics of a data node. */
struct DataNodeConfig {
    /**
     * Parallel transactions per class. Reads and writes run in separate
     * service pools (NDB separates fast read paths from its commit
     * machinery), so a read flood does not stall commits — matching the
     * paper's observation that HopsFS write latency stays moderate even
     * while its reads saturate the store.
     */
    int concurrency = 16;
    sim::SimTime read_service_min = sim::usec(1200);
    sim::SimTime read_service_max = sim::usec(1900);
    sim::SimTime write_service_min = sim::usec(3200);
    sim::SimTime write_service_max = sim::usec(4800);
    /** Extra service per additional path component in a batched resolve. */
    sim::SimTime per_component_cost = sim::usec(35);
};

class DataNode {
  public:
    /** @p shard_id identifies this shard to the FaultPlan outage hooks. */
    DataNode(sim::Simulation& sim, sim::Rng rng, DataNodeConfig config,
             util::OverloadControlConfig overload = {}, int shard_id = 0);

    /**
     * Execute one read transaction that touches @p components inode rows
     * (a batched path resolve is a single transaction). @p deadline is
     * the op's absolute deadline (-1 = none); expired or shed admissions
     * return DEADLINE_EXCEEDED / RESOURCE_EXHAUSTED without consuming
     * service capacity. A served transaction stamps its queue sojourn
     * (kStoreQueue) and service time (kStoreService) into @p ledger,
     * which must outlive the call.
     */
    sim::Task<Status> execute_read(sim::LatencyLedger& ledger,
                                   int components = 1,
                                   sim::SimTime deadline = -1);

    /** Execute one write transaction touching @p rows inode rows. */
    sim::Task<Status> execute_write(sim::LatencyLedger& ledger, int rows = 1,
                                    sim::SimTime deadline = -1);

    uint64_t reads_served() const { return reads_.value(); }
    uint64_t writes_served() const { return writes_.value(); }

    /** Requests currently queued for a slot (read + write). */
    size_t queue_depth() const;

    /** Total busy server time accumulated (for utilization reporting). */
    sim::SimTime busy_time() const { return busy_time_; }

    /** Admissions shed by overload control (all reasons). */
    uint64_t shed_total() const
    {
        return shed_expired_.value() + shed_queue_full_.value() +
               shed_sojourn_.value() + shed_fail_fast_.value();
    }

  private:
    /**
     * Common admission + service path for both transaction classes.
     * @p base_service is the service time drawn for this transaction
     * (before any brownout multiplier).
     */
    sim::Task<Status> admit_and_serve(sim::Semaphore& slots,
                                      sim::SimTime base_service,
                                      sim::Counter& served,
                                      sim::SimTime deadline,
                                      sim::LatencyLedger& ledger);

    /**
     * Block at admission while a FaultPlan outage window covers this
     * shard. Transactions queue (none are lost) and resume when the shard
     * comes back; the row state — the authoritative NamespaceTree owned
     * by the MetadataStore — is untouched by an outage.
     */
    sim::Task<void> stall_while_down();

    sim::Simulation& sim_;
    sim::Rng rng_;
    DataNodeConfig config_;
    util::OverloadControlConfig overload_;
    int shard_id_;
    sim::Semaphore read_slots_;
    sim::Semaphore write_slots_;
    sim::Counter reads_;
    sim::Counter writes_;
    sim::SimTime busy_time_ = 0;
    // Registry-owned shed counters + sojourn histogram ({shard} labels).
    sim::Counter& shed_expired_;
    sim::Counter& shed_queue_full_;
    sim::Counter& shed_sojourn_;
    sim::Counter& shed_fail_fast_;
    sim::Histogram& sojourn_hist_;
};

}  // namespace lfs::store
