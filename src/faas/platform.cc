#include "src/faas/platform.h"

namespace lfs::faas {

Platform::Platform(sim::Simulation& sim, net::Network& network, sim::Rng rng,
                   PlatformConfig config)
    : sim_(sim),
      network_(network),
      rng_(rng),
      config_(config),
      pool_(config.total_vcpus)
{
    sim_.metrics().register_callback_gauge(
        "faas.live_instances_total", {},
        [this] { return static_cast<double>(total_alive_instances()); },
        this);
}

Platform::~Platform()
{
    sim_.metrics().remove_owner(this);
}

FunctionDeployment&
Platform::create_deployment(const std::string& name, FunctionConfig config,
                            AppFactory factory,
                            util::OverloadControlConfig overload)
{
    int id = static_cast<int>(deployments_.size());
    deployments_.push_back(std::make_unique<FunctionDeployment>(
        sim_, network_, pool_, rng_.fork(), id, name, config,
        std::move(factory), overload));
    FunctionDeployment* d = deployments_.back().get();
    sim_.metrics().register_callback_gauge(
        "faas.live_instances", {{"deployment", name}},
        [d] { return static_cast<double>(d->alive_count()); }, this);
    sim_.metrics().register_callback_gauge(
        "faas.queue_len", {{"deployment", name}},
        [d] { return static_cast<double>(d->queue_length()); }, this);
    return *d;
}

int
Platform::total_alive_instances() const
{
    int total = 0;
    for (const auto& d : deployments_) {
        total += d->alive_count();
    }
    return total;
}

uint64_t
Platform::total_cold_starts() const
{
    uint64_t total = 0;
    for (const auto& d : deployments_) {
        total += d->cold_starts();
    }
    return total;
}

double
Platform::total_busy_gb_us() const
{
    double total = 0;
    for (const auto& d : deployments_) {
        total += d->total_busy_gb_us();
    }
    return total;
}

double
Platform::total_provisioned_gb_us() const
{
    double total = 0;
    for (const auto& d : deployments_) {
        total += static_cast<double>(d->total_provisioned_time()) *
                 d->config().memory_gb;
    }
    return total;
}

uint64_t
Platform::total_requests() const
{
    uint64_t total = 0;
    for (const auto& d : deployments_) {
        total += d->total_requests();
    }
    return total;
}

uint64_t
Platform::total_gateway_invocations() const
{
    uint64_t total = 0;
    for (const auto& d : deployments_) {
        total += d->gateway_invocations();
    }
    return total;
}

}  // namespace lfs::faas
