/**
 * @file
 * A serverless function deployment: a uniquely named function registered
 * with the platform, owning a dynamic set of instances. λFS partitions the
 * DFS namespace across n deployments; each deployment auto-scales its
 * instance count with HTTP load (§3.1, §3.4).
 *
 * Admission is single-path: every gateway invocation enters a FIFO queue
 * and is assigned a reserved HTTP concurrency slot by drain_queue(), which
 * also triggers scale-out (cold start) when all slots are taken and the
 * resource pool permits another instance. Under overload control the
 * queue holds at most util::kGatewayQueueDepth invocations and sheds
 * work queued longer than util::kGatewaySojournLimit.
 */
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/faas/function_instance.h"
#include "src/faas/resource_pool.h"
#include "src/net/network.h"
#include "src/sim/stats.h"
#include "src/util/overload.h"

namespace lfs::faas {

class FunctionDeployment {
  public:
    FunctionDeployment(sim::Simulation& sim, net::Network& network,
                       ResourcePool& pool, sim::Rng rng, int id,
                       std::string name, FunctionConfig config,
                       AppFactory factory,
                       util::OverloadControlConfig overload);

    int id() const { return id_; }
    const std::string& name() const { return name_; }
    const FunctionConfig& config() const { return config_; }

    /**
     * Invoke the function through the platform's API gateway (HTTP RPC).
     * Pays gateway latency both ways, may cold-start a new instance, and
     * queues when the platform is at capacity.
     */
    sim::Task<OpResult> invoke_via_gateway(Invocation inv);

    /**
     * Cap the number of simultaneously alive instances (0 = unlimited).
     * Used by the auto-scaling ablation (Figure 14).
     */
    void set_max_instances(int max) { max_instances_ = max; }

    /** Pre-provision @p n warm instances (skips cold start). */
    void prewarm(int n);

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    int alive_count() const { return alive_count_; }
    int warm_count() const;
    std::vector<FunctionInstance*> alive_instances() const;

    /** Kill one alive instance (fault injection). @return killed or null. */
    FunctionInstance* kill_one();

    uint64_t cold_starts() const { return cold_starts_.value(); }
    uint64_t reclamations() const { return reclamations_.value(); }
    size_t queue_length() const { return wait_queue_.size(); }

    /** Invocations shed by gateway admission control (all reasons). */
    uint64_t shed_total() const
    {
        return shed_queue_full_.value() + shed_expired_.value() +
               shed_sojourn_.value();
    }

    /** Invocations that entered through the API gateway (billed as
     *  Lambda requests; direct TCP RPCs ride the running invocation). */
    uint64_t gateway_invocations() const
    {
        return gateway_invocations_.value();
    }

    /** Billable busy time summed over all instances ever created. */
    sim::SimTime total_busy_time() const;

    /** Provisioned (container-alive) time summed over all instances. */
    sim::SimTime total_provisioned_time() const;

    /** GB-microseconds of busy memory (for Lambda pricing). */
    double total_busy_gb_us() const;

    uint64_t total_requests() const;

    /** Membership hooks (λFS wires these to the Coordinator). */
    std::function<void(FunctionInstance&)> on_instance_warm;
    std::function<void(FunctionInstance&)> on_instance_dead;

  private:
    /**
     * One queued gateway invocation. The cell resolves to the assigned
     * instance, or to nullptr when admission control sheds the entry
     * (deadline expired in queue, or sojourn over the CoDel limit);
     * invoke_via_gateway classifies nullptr into the right error.
     */
    struct QueuedInvocation {
        std::shared_ptr<sim::OneShot<FunctionInstance*>> cell;
        sim::SimTime enqueued = 0;
        sim::SimTime deadline = -1;
    };

    FunctionInstance* find_http_slot();
    FunctionInstance* try_scale_out(bool cold);
    sim::Task<void> watch_warm(FunctionInstance* instance);
    void drain_queue();
    void handle_instance_dead(FunctionInstance& instance);

    sim::Simulation& sim_;
    net::Network& network_;
    ResourcePool& pool_;
    sim::Rng rng_;
    int id_;
    std::string name_;
    FunctionConfig config_;
    AppFactory factory_;
    util::OverloadControlConfig overload_;
    int max_instances_ = 0;
    int next_instance_id_ = 0;
    int alive_count_ = 0;
    size_t kill_cursor_ = 0;
    std::vector<std::unique_ptr<FunctionInstance>> instances_;
    std::deque<QueuedInvocation> wait_queue_;
    // Registry-owned (labelled by deployment): survive this object.
    sim::Counter& cold_starts_;
    sim::Counter& reclamations_;
    sim::Counter& gateway_invocations_;
    sim::Counter& shed_queue_full_;
    sim::Counter& shed_expired_;
    sim::Counter& shed_sojourn_;
    sim::Histogram& queue_sojourn_;
};

}  // namespace lfs::faas
