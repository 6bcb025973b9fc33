/**
 * @file
 * The λFS client library (§3.2, Appendices B and C). A client:
 *  - routes each operation to the deployment owning its namespace
 *    partition,
 *  - prefers direct TCP connections (shared across the TCP servers of its
 *    VM) and falls back to HTTP invocations through the API gateway,
 *  - randomly replaces a small fraction of TCP RPCs with HTTP RPCs so the
 *    FaaS platform observes load and can auto-scale (§3.4),
 *  - transparently resubmits timed-out or failed requests with
 *    exponential backoff + jitter (deduplicated server-side by op id),
 *  - mitigates stragglers by resubmitting requests whose latency exceeds
 *    a multiple of its moving-average latency (Appendix B),
 *  - enters anti-thrashing mode (all-TCP) when latency blows past the
 *    moving average, to stop runaway scale-out (Appendix C).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/name_node.h"
#include "src/faas/platform.h"
#include "src/sim/random.h"
#include "src/workload/dfs_interface.h"

namespace lfs::core {

struct ClientConfig {
    /** Probability that a TCP-eligible RPC is issued via HTTP instead. */
    double http_replace_probability = 0.01;
    /** Floor for the straggler-mitigation timeout. */
    sim::SimTime tcp_timeout_floor = sim::msec(200);
    /** TCP timeout when straggler mitigation is disabled. */
    sim::SimTime tcp_timeout_default = sim::sec(5);
    /** Timeout for HTTP invocations (gateway queueing can be long). */
    sim::SimTime http_timeout = sim::sec(15);
    int max_attempts = 12;
    /** Appendix B: straggler mitigation. */
    bool straggler_mitigation = true;
    double straggler_threshold = 10.0;
    /** Appendix C: anti-thrashing mode. */
    bool anti_thrashing = true;
    double thrash_threshold = 2.5;
    sim::SimTime anti_thrash_duration = sim::sec(5);
};

class LfsClient : public workload::DfsClient {
  public:
    LfsClient(LfsRuntime& runtime, faas::Platform& platform,
              ClientConfig config, int global_id, int vm, int tcp_server,
              sim::Rng rng);

    sim::Task<OpResult> execute(Op op) override;

    int vm() const { return vm_; }
    int tcp_server() const { return tcp_server_; }

    uint64_t tcp_rpcs() const { return tcp_rpcs_; }
    uint64_t http_rpcs() const { return http_rpcs_; }
    uint64_t resubmissions() const { return resubmissions_; }
    uint64_t timeouts() const { return timeouts_; }
    /** Resubmitted creates recognized as the client's own earlier commit. */
    uint64_t reconciled_creates() const { return reconciled_creates_; }
    /** Retries refused because the deployment's retry budget was empty. */
    uint64_t retry_budget_denied() const { return retry_budget_denied_; }
    /** Ops abandoned because their deadline passed between attempts. */
    uint64_t deadline_giveups() const { return deadline_giveups_; }
    bool in_anti_thrash_mode() const;

  private:
    /**
     * One TCP attempt with a timeout; late replies are discarded. Sets
     * @p duplicated when the FaultPlan sent the request twice.
     */
    sim::Task<OpResult> issue_tcp(faas::FunctionInstance* instance,
                                  faas::Invocation inv, sim::SimTime timeout,
                                  bool& duplicated);

    /** One HTTP attempt with a timeout; @p duplicated as for issue_tcp. */
    sim::Task<OpResult> issue_http(int deployment, faas::Invocation inv,
                                   sim::SimTime timeout, bool& duplicated);

    /**
     * Pre-retry sleep. Exponential + jitter by default; under overload
     * control, decorrelated jitter: sleep = min(cap, uniform(base,
     * 3 * prev)) — @p prev carries the previous sleep across this op's
     * attempts.
     */
    sim::Task<void> backoff(int attempt, sim::SimTime& prev);

    /** Moving-average end-to-end latency in microseconds. */
    double avg_latency_us() const;
    void record_latency(sim::SimTime latency);

    LfsRuntime& rt_;
    faas::Platform& platform_;
    ClientConfig config_;
    int global_id_;
    int vm_;
    int tcp_server_;
    sim::Rng rng_;
    uint64_t next_seq_ = 0;
    std::vector<double> latency_window_;
    size_t latency_cursor_ = 0;
    double latency_sum_ = 0.0;
    sim::SimTime anti_thrash_until_ = -1;
    uint64_t tcp_rpcs_ = 0;
    uint64_t http_rpcs_ = 0;
    uint64_t resubmissions_ = 0;
    uint64_t timeouts_ = 0;
    uint64_t reconciled_creates_ = 0;
    uint64_t retry_budget_denied_ = 0;
    uint64_t deadline_giveups_ = 0;
};

}  // namespace lfs::core
