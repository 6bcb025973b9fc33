/**
 * @file
 * λFS system assembly: wires the FaaS platform, persistent metadata
 * store, coordinator, namespace partitioner, TCP registry, serverless
 * NameNode deployments, and client VMs into one deployable system
 * implementing the workload::Dfs interface (Figure 2). Over IndexFS' LSM
 * store instead of NDB, the same assembly is λIndexFS (§4, §5.7); as a
 * fixed pool reached only through the API gateway, it is InfiniCache
 * (§5.1); as a fixed, always-connected pool billed by the VM-hour, it is
 * HopsFS and HopsFS+Cache (§2, §5.1).
 */
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/coord/coordinator.h"
#include "src/core/client.h"
#include "src/core/name_node.h"
#include "src/core/partitioning.h"
#include "src/core/tcp_registry.h"
#include "src/cost/pricing.h"
#include "src/faas/platform.h"
#include "src/lsm/lsm_tree.h"
#include "src/net/network.h"
#include "src/store/metadata_store.h"
#include "src/util/overload.h"
#include "src/workload/dfs_interface.h"

namespace lfs::core {

struct LambdaFsConfig {
    /** System name in metrics and attribution labels. */
    std::string label = "lambda-fs";
    /** Number of function deployments the namespace is hashed across. */
    int num_deployments = 16;
    /** Platform resource cap (the paper's fairness normalization). */
    double total_vcpus = 512.0;
    faas::FunctionConfig function = {
        /*vcpus=*/6.25,
        /*memory_gb=*/30.0,
        /*concurrency_level=*/4,
        /*cold_start_min=*/sim::msec(500),
        /*cold_start_max=*/sim::msec(1200),
        /*idle_reclaim=*/sim::sec(60),
    };
    NameNodeConfig name_node;
    ClientConfig client;
    store::StoreConfig store;
    /** Set: run over IndexFS' LSM store of store.num_data_nodes LevelDBs
        (λIndexFS) instead of NDB. */
    std::optional<lsm::LsmConfig> lsm_store;
    net::NetworkConfig network;
    int num_client_vms = 8;
    int clients_per_vm = 128;
    /** At-most-n clients per TCP server (§3.2). */
    int max_clients_per_tcp_server = 64;
    /** Instances pre-provisioned per deployment before the workload. */
    int prewarm_per_deployment = 1;
    /** Overload control, handed to every layer that sheds. */
    util::OverloadControlConfig overload;
    /**
     * A serverful pool (HopsFS): from the start, every TCP server holds a
     * connection to one prewarmed instance of each deployment, dealt out
     * in turn; no deployment scales past its prewarmed instances; and the
     * pool is billed as VMs of total_vcpus (cost::vm_cost) instead of
     * pay-per-use.
     */
    bool serverful = false;
    uint64_t seed = 42;
};

/**
 * λIndexFS as §5.7 deploys it: 8 deployments of 4-vCPU / 16-GB functions
 * on a 64-vCPU OpenWhisk cluster, over an LSM store of 4 LevelDBs (one
 * per original IndexFS client VM), for 4 client VMs of 64 clients.
 */
LambdaFsConfig lambda_indexfs_config();

/**
 * InfiniCache as §5.1 deploys it, "an approximation of λFS with no
 * auto-scaling or long-lived TCP-RPC request mechanism": 64 one-instance
 * deployments of 6.25-vCPU / 3-GB functions on 512 vCPUs, never reclaimed,
 * and every op a fresh invocation through the API gateway. The instance
 * cap is not a config field: cap the built system with
 * LambdaFs::set_max_instances_per_deployment(1).
 */
LambdaFsConfig infinicache_config();

/**
 * HopsFS as §5.1 deploys it: N = max(1, total_vcpus / 16) serverful
 * NameNodes of total_vcpus / N vCPUs, each always warm and never
 * reclaimed, and no op goes through the API gateway. Vanilla HopsFS
 * (@p cached false) is one deployment of N stateless NameNodes, each
 * client sticking to one of them; HopsFS+Cache is N one-instance
 * deployments with a 2-GB cache each, reached by parent-directory hash
 * like λFS. The cost-normalized variant is the cached preset at a
 * smaller @p total_vcpus.
 */
LambdaFsConfig hopsfs_config(double total_vcpus, bool cached);

class LambdaFs : public workload::Dfs {
  public:
    LambdaFs(sim::Simulation& sim, LambdaFsConfig config);
    ~LambdaFs() override;

    // workload::Dfs
    std::string name() const override { return config_.label; }
    workload::DfsClient& client(size_t index) override;
    size_t client_count() const override { return clients_.size(); }
    workload::SystemMetrics& metrics() override { return metrics_; }
    ns::NamespaceTree& authoritative_tree() override
    {
        return store_->tree();
    }
    int active_name_nodes() const override;
    double cost_so_far() const override;
    double simplified_cost_so_far() const override;
    workload::DegradationStats degradation() const override;

    // λFS specifics
    faas::Platform& platform() { return platform_; }
    store::Store& store() { return *store_; }
    coord::Coordinator& coordinator() { return coordinator_; }
    TcpRegistry& tcp_registry() { return tcp_registry_; }
    const NamespacePartitioner& partitioner() const { return partitioner_; }
    LfsClient& lfs_client(size_t index) { return *clients_[index]; }
    ResultCache& result_cache(int deployment)
    {
        return *result_caches_[static_cast<size_t>(deployment)];
    }
    const LambdaFsConfig& config() const { return config_; }

    /** Untimed preload of an existing path (workload setup). */
    void preload(const std::string& p, ns::INodeType type)
    {
        store_->preload(p, type);
    }

    /** Kill one NameNode of deployment @p deployment (fault injection). */
    bool kill_name_node(int deployment);

    /** Cap instances per deployment (auto-scaling ablation, Fig. 14). */
    void set_max_instances_per_deployment(int max);

  private:
    sim::Simulation& sim_;
    LambdaFsConfig config_;
    sim::Rng rng_;
    net::Network network_;
    std::unique_ptr<store::Store> store_;
    coord::Coordinator coordinator_;
    NamespacePartitioner partitioner_;
    TcpRegistry tcp_registry_;
    faas::Platform platform_;
    // Declared before runtime_ (which holds a reference to it).
    std::vector<std::unique_ptr<ResultCache>> result_caches_;
    /** Per-deployment retry budgets (empty when overload control is off). */
    std::vector<std::unique_ptr<util::RetryBudget>> retry_budgets_;
    std::unique_ptr<LfsRuntime> runtime_;
    std::vector<std::unique_ptr<LfsClient>> clients_;
    workload::SystemMetrics metrics_;
};

}  // namespace lfs::core
