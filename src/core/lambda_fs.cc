#include "src/core/lambda_fs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/indexfs/lsm_timing.h"

namespace lfs::core {

namespace {

int
tcp_servers_per_vm(const LambdaFsConfig& config)
{
    int per_server = std::max(config.max_clients_per_tcp_server, 1);
    return std::max(1, (config.clients_per_vm + per_server - 1) / per_server);
}

std::unique_ptr<store::Store>
make_store(sim::Simulation& sim, net::Network& network, sim::Rng rng,
           const LambdaFsConfig& config)
{
    if (config.lsm_store) {
        return std::make_unique<indexfs::LsmStore>(
            sim, rng, config.store.num_data_nodes, *config.lsm_store);
    }
    return std::make_unique<store::MetadataStore>(sim, network, rng,
                                                  config.store,
                                                  config.overload);
}

}  // namespace

LambdaFsConfig
lambda_indexfs_config()
{
    LambdaFsConfig config;
    config.label = "lambda-indexfs";
    config.num_deployments = 8;
    config.total_vcpus = 64.0;
    config.function.vcpus = 4.0;
    config.function.memory_gb = 16.0;
    config.name_node.read_cpu = sim::usec(180);
    config.name_node.read_block_cpu = 0;
    config.name_node.miss_extra_cpu = 0;
    config.name_node.write_cpu = sim::usec(220);
    config.name_node.cache_bytes = 256ull * 1024 * 1024;
    config.name_node.report_interval = 0;
    config.client.tcp_timeout_default = sim::sec(15);
    config.client.http_timeout = sim::sec(15);
    config.client.max_attempts = 6;
    config.client.straggler_mitigation = false;
    config.client.anti_thrashing = false;
    config.lsm_store = lsm::LsmConfig{};
    config.num_client_vms = 4;
    config.clients_per_vm = 64;
    config.max_clients_per_tcp_server = 32;
    config.seed = 47;
    return config;
}

LambdaFsConfig
infinicache_config()
{
    LambdaFsConfig config;
    config.label = "infinicache";
    config.num_deployments = 64;
    config.function.memory_gb = 3.0;
    config.function.concurrency_level = 8;
    config.function.idle_reclaim = 0;  // fixed pool: never reclaimed
    config.name_node.read_cpu = sim::usec(400);
    config.name_node.read_block_cpu = 0;
    config.name_node.miss_extra_cpu = 0;
    config.name_node.write_cpu = sim::usec(500);
    config.name_node.cache_bytes = 512ull * 1024 * 1024;
    config.name_node.report_interval = 0;
    // No long-lived TCP RPC: every op is a fresh gateway invocation.
    config.client.http_replace_probability = 1.0;
    config.client.straggler_mitigation = false;
    config.client.anti_thrashing = false;
    config.client.max_attempts = 4;
    config.seed = 44;
    return config;
}

LambdaFsConfig
hopsfs_config(double total_vcpus, bool cached)
{
    // The paper's HopsFS NameNodes are 16-vCPU servers; smaller budgets
    // get fewer, thinner NameNodes so the total is honoured exactly.
    const int name_nodes = std::max(1, static_cast<int>(total_vcpus / 16.0));
    LambdaFsConfig config;
    config.label = cached ? "hopsfs+cache" : "hopsfs";
    config.total_vcpus = total_vcpus;
    config.function.vcpus = total_vcpus / name_nodes;
    // Servers are up before the workload starts and never go away.
    config.function.cold_start_min = 0;
    config.function.cold_start_max = 0;
    config.function.idle_reclaim = 0;
    // Vanilla: one pool of stateless NameNodes. +Cache: one NameNode per
    // namespace partition, so each directory is cached at one place.
    config.num_deployments = cached ? name_nodes : 1;
    config.prewarm_per_deployment = cached ? 1 : name_nodes;
    config.name_node.read_cpu = sim::usec(cached ? 620 : 350);
    config.name_node.read_block_cpu = 0;
    config.name_node.miss_extra_cpu = 0;
    config.name_node.write_cpu = sim::usec(350);
    config.name_node.cache_bytes = cached ? 2ull * 1024 * 1024 * 1024 : 0;
    config.name_node.resolve_write_parent = false;
    config.name_node.subtree_per_row_cpu = sim::usec(4);
    config.name_node.offload_subtree = false;
    config.name_node.report_interval = 0;
    config.client.http_replace_probability = 0.0;
    config.client.tcp_timeout_default = sim::sec(5);
    config.client.max_attempts = 8;
    config.client.straggler_mitigation = false;
    config.client.anti_thrashing = false;
    // One TCP server per client, so the serverful preconnect deals each
    // client its own vanilla NameNode.
    config.max_clients_per_tcp_server = 1;
    config.serverful = true;
    config.seed = 43;
    return config;
}

LambdaFs::LambdaFs(sim::Simulation& sim, LambdaFsConfig config)
    : sim_(sim),
      config_(std::move(config)),
      rng_(config_.seed),
      network_(sim, rng_.fork(), config_.network),
      store_(make_store(sim, network_, rng_.fork(), config_)),
      coordinator_(sim, network_),
      partitioner_(config_.num_deployments),
      tcp_registry_(config_.num_client_vms, tcp_servers_per_vm(config_)),
      platform_(sim, network_, rng_.fork(),
                faas::PlatformConfig{config_.total_vcpus, config_.function}),
      metrics_(sim.metrics(), name())
{
    result_caches_.reserve(static_cast<size_t>(config_.num_deployments));
    for (int d = 0; d < config_.num_deployments; ++d) {
        result_caches_.push_back(std::make_unique<ResultCache>(
            sim_, config_.name_node.result_cache_entries));
    }
    runtime_ = std::make_unique<LfsRuntime>(
        LfsRuntime{sim_, network_, *store_, coordinator_, partitioner_,
                   tcp_registry_, result_caches_, config_.overload});
    if (config_.overload.enabled) {
        retry_budgets_.reserve(static_cast<size_t>(config_.num_deployments));
        for (int d = 0; d < config_.num_deployments; ++d) {
            retry_budgets_.push_back(std::make_unique<util::RetryBudget>(
                util::kRetryBudgetRatio, util::kRetryBudgetBurst));
            util::RetryBudget* budget = retry_budgets_.back().get();
            runtime_->retry_budgets.push_back(budget);
            sim::MetricLabels labels = {{"deployment", std::to_string(d)}};
            sim_.metrics().register_callback_gauge(
                "overload.retry_tokens", labels,
                [budget] { return budget->tokens(); }, this);
            sim_.metrics().register_callback_gauge(
                "overload.retries_denied", labels,
                [budget] {
                    return static_cast<double>(budget->retries_denied());
                },
                this);
        }
    }

    // Aggregate cache hit ratio over every NameNode deployment's counters
    // (evaluated lazily at metrics export).
    sim_.metrics().register_callback_gauge(
        "cache.hit_ratio", {},
        [this] {
            uint64_t hits = 0;
            uint64_t misses = 0;
            for (int d = 0; d < config_.num_deployments; ++d) {
                sim::MetricLabels labels = {
                    {"deployment", std::to_string(d)}};
                if (sim_.metrics().contains("cache.hits", labels)) {
                    hits += sim_.metrics().counter("cache.hits", labels)
                                .value();
                    misses += sim_.metrics().counter("cache.misses", labels)
                                  .value();
                }
            }
            uint64_t total = hits + misses;
            return total ? static_cast<double>(hits) /
                               static_cast<double>(total)
                         : 0.0;
        },
        this);

    for (int d = 0; d < config_.num_deployments; ++d) {
        auto& deployment = platform_.create_deployment(
            "NameNode" + std::to_string(d), config_.function,
            [this](faas::FunctionInstance& instance) {
                return std::make_unique<NameNode>(*runtime_, instance,
                                                  config_.name_node);
            },
            config_.overload);
        deployment.prewarm(config_.prewarm_per_deployment);
        // A deployment short of its prewarmed instances has no room to
        // ever place one (a fixed pool has no other), so every op hashed
        // to it would stall until its client gave up.
        if (deployment.alive_count() < config_.prewarm_per_deployment) {
            std::fprintf(stderr,
                         "LambdaFs: deployment %s placed %d of %d "
                         "prewarmed instances within the %.2f-vCPU cap\n",
                         deployment.name().c_str(), deployment.alive_count(),
                         config_.prewarm_per_deployment,
                         config_.total_vcpus);
            std::abort();
        }
        if (config_.serverful) {
            deployment.set_max_instances(config_.prewarm_per_deployment);
        }
    }

    int servers = tcp_servers_per_vm(config_);
    if (config_.serverful) {
        // Each TCP server (one per client) is dealt one instance of every
        // deployment in turn: HopsFS's sticky NameNode selection, even
        // over the pool. A least-loaded pick over the whole pool herds
        // instead: an instance's load rises only once a request has
        // crossed the network, so clients that pick together pick alike.
        for (int vm = 0; vm < config_.num_client_vms; ++vm) {
            for (int server = 0; server < servers; ++server) {
                size_t turn = static_cast<size_t>(vm * servers + server);
                for (int d = 0; d < platform_.deployment_count(); ++d) {
                    std::vector<faas::FunctionInstance*> pool =
                        platform_.deployment(d).alive_instances();
                    tcp_registry_.add_connection(vm, server,
                                                 pool[turn % pool.size()]);
                }
            }
        }
    }

    int total_clients = config_.num_client_vms * config_.clients_per_vm;
    clients_.reserve(static_cast<size_t>(total_clients));
    for (int i = 0; i < total_clients; ++i) {
        int vm = i / config_.clients_per_vm;
        int within_vm = i % config_.clients_per_vm;
        int server = std::min(within_vm / config_.max_clients_per_tcp_server,
                              servers - 1);
        clients_.push_back(std::make_unique<LfsClient>(
            *runtime_, platform_, config_.client, i, vm, server,
            rng_.fork()));
    }
}

LambdaFs::~LambdaFs()
{
    sim_.metrics().remove_owner(this);
}

workload::DfsClient&
LambdaFs::client(size_t index)
{
    return *clients_.at(index);
}

int
LambdaFs::active_name_nodes() const
{
    return platform_.total_alive_instances();
}

double
LambdaFs::cost_so_far() const
{
    if (config_.serverful) {
        return cost::vm_cost(config_.total_vcpus, sim_.now());
    }
    return cost::lambda_cost(platform_.total_busy_gb_us(),
                             platform_.total_gateway_invocations());
}

double
LambdaFs::simplified_cost_so_far() const
{
    if (config_.serverful) {
        return cost_so_far();
    }
    return cost::simplified_cost(platform_.total_provisioned_gb_us(),
                                 platform_.total_gateway_invocations());
}

bool
LambdaFs::kill_name_node(int deployment)
{
    if (deployment < 0 || deployment >= platform_.deployment_count()) {
        return false;
    }
    return platform_.deployment(deployment).kill_one() != nullptr;
}

workload::DegradationStats
LambdaFs::degradation() const
{
    workload::DegradationStats stats;
    for (int d = 0; d < platform_.deployment_count(); ++d) {
        stats.gateway_shed += platform_.deployment(d).shed_total();
    }
    if (const auto* ndb =
            dynamic_cast<const store::MetadataStore*>(store_.get())) {
        stats.store_shed = ndb->shed_total();
        stats.breaker_open_events = ndb->breaker_opens();
        stats.breaker_fast_failures = ndb->breaker_fast_failures();
    }
    for (const auto& budget : retry_budgets_) {
        stats.retries_denied += budget->retries_denied();
    }
    for (const auto& client : clients_) {
        stats.deadline_giveups += client->deadline_giveups();
    }
    return stats;
}

void
LambdaFs::set_max_instances_per_deployment(int max)
{
    for (int d = 0; d < platform_.deployment_count(); ++d) {
        platform_.deployment(d).set_max_instances(max);
    }
}

}  // namespace lfs::core
