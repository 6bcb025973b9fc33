/**
 * @file
 * HopsFS system assembly (the paper's main baseline, §2): a statically
 * provisioned cluster of serverful NameNodes in front of the NDB-model
 * store. Three configurations from §5:
 *  - vanilla HopsFS: stateless NameNodes, clients pick NameNodes
 *    round-robin;
 *  - HopsFS+Cache: per-NameNode metadata cache with client-side
 *    consistent-hash routing on the parent directory (hot directories
 *    bottleneck on their single owning NameNode);
 *  - CN HopsFS+Cache: the cost-normalized variant (fewer vCPUs).
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/cost/pricing.h"
#include "src/hopsfs/hops_name_node.h"
#include "src/net/network.h"
#include "src/sim/random.h"
#include "src/store/metadata_store.h"
#include "src/util/hash.h"
#include "src/workload/dfs_interface.h"

namespace lfs::hopsfs {

struct HopsFsConfig {
    std::string label = "hopsfs";
    int num_name_nodes = 32;
    HopsNameNodeConfig name_node;
    /** Enables the +Cache variant with this per-NameNode budget. */
    size_t cache_bytes_per_nn = 0;
    store::StoreConfig store;
    net::NetworkConfig network;
    int num_client_vms = 8;
    int clients_per_vm = 128;
    int max_attempts = 8;
    uint64_t seed = 43;
};

class HopsFs;

/** HopsFS client: routes, retries, and resubmits. */
class HopsClient : public workload::DfsClient {
  public:
    HopsClient(HopsFs& fs, int id, sim::Rng rng);

    sim::Task<OpResult> execute(Op op) override;

  private:
    HopsFs& fs_;
    int id_;
    sim::Rng rng_;
    int rr_cursor_;
};

class HopsFs : public workload::Dfs {
  public:
    HopsFs(sim::Simulation& sim, HopsFsConfig config);
    ~HopsFs() override;

    // workload::Dfs
    std::string name() const override { return config_.label; }
    workload::DfsClient& client(size_t index) override
    {
        return *clients_.at(index);
    }
    size_t client_count() const override { return clients_.size(); }
    workload::SystemMetrics& metrics() override { return metrics_; }
    ns::NamespaceTree& authoritative_tree() override
    {
        return store_.tree();
    }
    int active_name_nodes() const override { return config_.num_name_nodes; }
    double cost_so_far() const override;

    // internals used by clients and tests
    sim::Simulation& simulation() { return sim_; }
    net::Network& network() { return network_; }
    store::MetadataStore& store() { return store_; }
    const HopsFsConfig& config() const { return config_; }
    bool cached() const { return config_.cache_bytes_per_nn > 0; }
    HopsNameNode& name_node(int index) { return *name_nodes_.at(index); }

    /** NameNode owning @p p's partition (+Cache routing). */
    HopsNameNode& owner_for(const std::string& p);

    /** Round-robin NameNode choice (vanilla routing). */
    HopsNameNode& nth(int index);

  private:
    sim::Simulation& sim_;
    HopsFsConfig config_;
    sim::Rng rng_;
    net::Network network_;
    store::MetadataStore store_;
    ConsistentHashRing ring_;
    std::vector<std::unique_ptr<HopsNameNode>> name_nodes_;
    std::vector<std::unique_ptr<HopsClient>> clients_;
    workload::SystemMetrics metrics_;
};

}  // namespace lfs::hopsfs
