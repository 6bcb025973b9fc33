/**
 * @file
 * The system-under-test abstraction. Every file system in this repository
 * (λFS, HopsFS, HopsFS+Cache, InfiniCache, CephFS-like, IndexFS,
 * λIndexFS) exposes clients that execute metadata operations; workload
 * drivers are written once against this interface.
 */
#pragma once

#include <string>

#include "src/namespace/namespace_tree.h"
#include "src/namespace/op.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"
#include "src/workload/metrics.h"

namespace lfs::workload {

/** One client session (the paper runs up to 1,024 of these). */
class DfsClient {
  public:
    virtual ~DfsClient() = default;

    /**
     * Execute one metadata operation end to end, including the client
     * library's routing, retry, and resubmission policies.
     */
    virtual sim::Task<OpResult> execute(Op op) = 0;
};

/**
 * Degradation tallies a system reports under overload (all zero for
 * systems without overload control). Aggregated by the bench harness's
 * degradation summary.
 */
struct DegradationStats {
    uint64_t gateway_shed = 0;     ///< shed by FaaS admission queues
    uint64_t store_shed = 0;       ///< shed/rejected at the metadata store
    uint64_t breaker_open_events = 0;
    uint64_t breaker_fast_failures = 0;
    uint64_t retries_denied = 0;   ///< retries refused by retry budgets
    uint64_t deadline_giveups = 0; ///< ops abandoned past their deadline
};

/** A complete file system deployment under test. */
class Dfs {
  public:
    virtual ~Dfs() = default;

    virtual std::string name() const = 0;

    virtual DfsClient& client(size_t index) = 0;
    virtual size_t client_count() const = 0;

    virtual SystemMetrics& metrics() = 0;

    /**
     * Untimed access to the authoritative namespace, used by workload
     * setup (building directory trees) and by verification.
     */
    virtual ns::NamespaceTree& authoritative_tree() = 0;

    /** Currently active metadata servers (Fig. 8's right axis). */
    virtual int active_name_nodes() const = 0;

    /**
     * Dollars accrued since t=0 under this system's native pricing model
     * (pay-per-use for FaaS systems, VM-hours for serverful ones).
     */
    virtual double cost_so_far() const = 0;

    /** Cost under the paper's "simplified" provisioned-time model. */
    virtual double simplified_cost_so_far() const { return cost_so_far(); }

    /** Overload-control tallies (zeros when the system has none). */
    virtual DegradationStats degradation() const { return {}; }
};

/**
 * Whether a driver counts an op that ended with @p status as completed:
 * every definite answer from the file system (OK, NOT_FOUND,
 * ALREADY_EXISTS, FAILED_PRECONDITION, PERMISSION_DENIED and
 * INVALID_ARGUMENT) is a completed round trip; timeouts, shedding and
 * unavailability are failures.
 */
bool counts_as_completed(const Status& status);

/**
 * Record one finished driver op of @p type on @p path. While
 * Simulation::attribution() records, @p result's ledger is finalized
 * against @p latency, added to @p dfs's attr.* histograms and offered to
 * the flight recorder with outcome @p ok; otherwise this does nothing.
 */
void record_op(sim::Simulation& sim, Dfs& dfs, OpType type,
               const std::string& path, OpResult& result,
               sim::SimTime latency, bool ok);

}  // namespace lfs::workload
