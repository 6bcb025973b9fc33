/**
 * @file
 * λIndexFS (§4, §5.7): the λFS serverless caching layer ported in front
 * of IndexFS' LSM stores. Function deployments partition directories by
 * directory-name hashing, cache metadata in function memory, use the
 * same hybrid TCP/HTTP RPC mechanism and randomized HTTP-TCP
 * replacement, and invalidate through the Coordinator — while LevelDB
 * instances (one per original client VM) remain the persistent store.
 * As in IndexFS, one NamespaceTree holds the namespace, every op applies
 * through ns::apply (a function-cache hit through ns::apply_cached), and
 * the LSM instances are the timing backend (lsm_timing.h).
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/cache/metadata_cache.h"
#include "src/coord/coordinator.h"
#include "src/core/tcp_registry.h"
#include "src/cost/pricing.h"
#include "src/faas/platform.h"
#include "src/indexfs/indexfs.h"
#include "src/lsm/lsm_tree.h"
#include "src/workload/dfs_interface.h"

namespace lfs::indexfs {

struct LambdaIndexFsConfig {
    std::string label = "lambda-indexfs";
    int num_deployments = 8;
    /** §5.7: the OpenWhisk cluster has 64 vCPUs / 256 GB. */
    double total_vcpus = 64.0;
    faas::FunctionConfig function = {
        /*vcpus=*/4.0,
        /*memory_gb=*/16.0,
        /*concurrency_level=*/4,
        /*cold_start_min=*/sim::msec(500),
        /*cold_start_max=*/sim::msec(1200),
        /*idle_reclaim=*/sim::sec(60),
    };
    sim::SimTime fn_read_cpu = sim::usec(180);
    sim::SimTime fn_write_cpu = sim::usec(220);
    size_t cache_bytes = 256ull * 1024 * 1024;
    /** One LevelDB per original IndexFS client VM. */
    int num_lsm_instances = 4;
    lsm::LsmConfig lsm;
    double http_replace_probability = 0.01;
    sim::SimTime request_timeout = sim::sec(15);
    int max_attempts = 6;
    net::NetworkConfig network;
    int num_client_vms = 4;
    int clients_per_vm = 64;
    int max_clients_per_tcp_server = 32;
    int prewarm_per_deployment = 1;
    uint64_t seed = 47;
};

class LambdaIndexFs;

/** The serverless caching function in front of the LSM stores. */
class LambdaIndexNode : public faas::FunctionApp, public coord::CacheMember {
  public:
    LambdaIndexNode(LambdaIndexFs& fs, faas::FunctionInstance& instance);
    ~LambdaIndexNode() override;

    sim::Task<OpResult> handle(faas::Invocation inv) override;
    void on_shutdown() override;

    bool member_alive() const override;
    sim::Task<void> deliver_invalidation(std::string path,
                                         bool subtree) override;

  private:
    /** The INV round for @p path's cached row, led by this instance. */
    sim::Task<void> write_coherence(const std::string& path);

    LambdaIndexFs& fs_;
    faas::FunctionInstance& instance_;
    cache::MetadataCache cache_;
    bool joined_ = false;
};

class LambdaIndexClient : public workload::DfsClient {
  public:
    LambdaIndexClient(LambdaIndexFs& fs, int id, int vm, int tcp_server,
                      sim::Rng rng);

    sim::Task<OpResult> execute(Op op) override;

  private:
    LambdaIndexFs& fs_;
    int id_;
    int vm_;
    int tcp_server_;
    sim::Rng rng_;
    uint64_t next_seq_ = 0;
};

class LambdaIndexFs : public workload::Dfs {
  public:
    LambdaIndexFs(sim::Simulation& sim, LambdaIndexFsConfig config);
    ~LambdaIndexFs() override;

    // workload::Dfs
    std::string name() const override { return config_.label; }
    workload::DfsClient& client(size_t index) override
    {
        return *clients_.at(index);
    }
    size_t client_count() const override { return clients_.size(); }
    workload::SystemMetrics& metrics() override { return metrics_; }
    ns::NamespaceTree& authoritative_tree() override { return tree_; }
    int active_name_nodes() const override;
    double cost_so_far() const override;

    // internals
    sim::Simulation& simulation() { return sim_; }
    net::Network& network() { return network_; }
    faas::Platform& platform() { return platform_; }
    coord::Coordinator& coordinator() { return coordinator_; }
    core::TcpRegistry& tcp_registry() { return tcp_registry_; }
    const LambdaIndexFsConfig& config() const { return config_; }

    /** Deployment owning @p p's directory partition. */
    int deployment_for(const std::string& p) const;

    /** LSM instance storing @p p's records. */
    lsm::LsmTree& lsm_for(const std::string& p);

    /** Untimed preload of an existing path (workload setup). */
    void preload(const std::string& p, ns::INodeType type);

    int lsm_count() const { return static_cast<int>(lsm_instances_.size()); }

  private:
    sim::Simulation& sim_;
    LambdaIndexFsConfig config_;
    sim::Rng rng_;
    net::Network network_;
    coord::Coordinator coordinator_;
    core::TcpRegistry tcp_registry_;
    faas::Platform platform_;
    ConsistentHashRing deployment_ring_;
    ConsistentHashRing lsm_ring_;
    std::vector<std::unique_ptr<lsm::LsmTree>> lsm_instances_;
    ns::NamespaceTree tree_;
    std::vector<std::unique_ptr<LambdaIndexClient>> clients_;
    workload::SystemMetrics metrics_;
};

}  // namespace lfs::indexfs
