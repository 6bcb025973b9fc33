/**
 * @file
 * The FaaS platform (the model of Apache OpenWhisk in the paper's
 * deployment): a registry of function deployments sharing one resource
 * pool, an API gateway (latency paid per invocation by deployments), and
 * platform-wide statistics used by the experiment harnesses.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/faas/deployment.h"
#include "src/faas/resource_pool.h"
#include "src/net/network.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"

namespace lfs::faas {

struct PlatformConfig {
    double total_vcpus = 512.0;
    FunctionConfig default_function;
};

class Platform {
  public:
    Platform(sim::Simulation& sim, net::Network& network, sim::Rng rng,
             PlatformConfig config = {});
    ~Platform();

    /**
     * Register a new uniquely named deployment. Deployment ids are dense
     * (0..n-1) so systems can hash directly onto them. @p overload
     * bounds its gateway admission queue.
     */
    FunctionDeployment& create_deployment(
        const std::string& name, FunctionConfig config, AppFactory factory,
        util::OverloadControlConfig overload = {});

    FunctionDeployment& deployment(int id) { return *deployments_[id]; }
    const FunctionDeployment& deployment(int id) const
    {
        return *deployments_[id];
    }
    int deployment_count() const
    {
        return static_cast<int>(deployments_.size());
    }

    ResourcePool& pool() { return pool_; }
    const ResourcePool& pool() const { return pool_; }
    const PlatformConfig& config() const { return config_; }

    /** Alive instances summed over all deployments. */
    int total_alive_instances() const;

    uint64_t total_cold_starts() const;

    /** Billable busy GB-microseconds (Lambda pricing input). */
    double total_busy_gb_us() const;

    /** Provisioned instance-time weighted by memory (simplified pricing). */
    double total_provisioned_gb_us() const;

    uint64_t total_requests() const;

    /** Gateway-entered invocations (the Lambda per-request bill). */
    uint64_t total_gateway_invocations() const;

  private:
    sim::Simulation& sim_;
    net::Network& network_;
    sim::Rng rng_;
    PlatformConfig config_;
    ResourcePool pool_;
    std::vector<std::unique_ptr<FunctionDeployment>> deployments_;
};

}  // namespace lfs::faas
