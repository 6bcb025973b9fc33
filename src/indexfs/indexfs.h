/**
 * @file
 * IndexFS baseline (§5.7): a scaled-out metadata middleware whose servers
 * are co-located with the client VMs and pack metadata into an LSM store
 * (the LevelDB model in src/lsm). Directories are partitioned across
 * servers by directory-name hashing (the simplified scheme the λFS
 * authors developed with the IndexFS authors, §4). Clients cache read
 * results under short leases (IndexFS' stateless client caching).
 *
 * One NamespaceTree holds the namespace and every op applies through
 * ns::apply; the servers' LSM instances are the timing backend
 * (lsm_timing.h). IndexFS serves the point ops of its metadata table —
 * create, mkdir, delete, symlink, hard link, setattr, sessions, GC,
 * stat, read and statfs — and rejects mv, the subtree ops and ls.
 */
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/metadata_cache.h"
#include "src/cost/pricing.h"
#include "src/lsm/lsm_tree.h"
#include "src/namespace/namespace_tree.h"
#include "src/net/network.h"
#include "src/sim/primitives.h"
#include "src/util/hash.h"
#include "src/workload/dfs_interface.h"

namespace lfs::indexfs {

struct IndexFsConfig {
    std::string label = "indexfs";
    /** Servers co-located with the (4) client VMs. */
    int num_servers = 4;
    /** IndexFS servers process one partition nearly serially. */
    int server_concurrency = 2;
    sim::SimTime server_cpu = sim::usec(100);
    lsm::LsmConfig lsm;
    /** Client lease duration. */
    sim::SimTime lease_ttl = sim::msec(1000);
    sim::SimTime client_local_op = sim::usec(30);
    net::NetworkConfig network;
    int num_client_vms = 4;
    int clients_per_vm = 64;
    uint64_t seed = 46;
};

class IndexFs;

/** One IndexFS server: bounded CPU in front of its own LSM instance. */
class IndexFsServer {
  public:
    IndexFsServer(IndexFs& fs, sim::Simulation& sim, sim::Rng rng,
                  const IndexFsConfig& config, int id);

    /**
     * Serve a one-partition @p op: spend this server's CPU, apply the op
     * to the namespace, then charge its row calls to this server's LSM.
     */
    sim::Task<OpResult> serve(const Op& op);

    /**
     * Spend this server's CPU on one partition of a namespace-wide sweep
     * (statfs, GC; @p key null) or on one symlink hop of a read, whose
     * row @p key is then fetched. Applies nothing.
     */
    sim::Task<OpResult> visit(const std::string* key);

    lsm::LsmTree& lsm() { return lsm_; }
    int id() const { return id_; }

  private:
    /** Queue for and spend the CPU; stamp it into @p ledger. */
    sim::Task<void> spend_cpu(sim::LatencyLedger& ledger);

    IndexFs& fs_;
    sim::Simulation& sim_;
    int id_;
    sim::SimTime cpu_service_;
    sim::Semaphore cpu_;
    lsm::LsmTree lsm_;
};

class IndexFsClient : public workload::DfsClient {
  public:
    IndexFsClient(IndexFs& fs, int id, sim::Rng rng);

    sim::Task<OpResult> execute(Op op) override;

  private:
    struct Lease {
        ns::INode inode;
        sim::SimTime expires;
    };

    IndexFs& fs_;
    int id_;
    sim::Rng rng_;
    std::unordered_map<std::string, Lease> leases_;
};

class IndexFs : public workload::Dfs {
  public:
    IndexFs(sim::Simulation& sim, IndexFsConfig config);
    ~IndexFs() override;

    // workload::Dfs
    std::string name() const override { return config_.label; }
    workload::DfsClient& client(size_t index) override
    {
        return *clients_.at(index);
    }
    size_t client_count() const override { return clients_.size(); }
    workload::SystemMetrics& metrics() override { return metrics_; }
    ns::NamespaceTree& authoritative_tree() override { return tree_; }
    int active_name_nodes() const override { return config_.num_servers; }
    double cost_so_far() const override;

    // internals
    sim::Simulation& simulation() { return sim_; }
    net::Network& network() { return network_; }
    const IndexFsConfig& config() const { return config_; }
    IndexFsServer& server_for(const std::string& p);
    IndexFsServer& server(int index) { return *servers_.at(index); }
    int server_count() const { return static_cast<int>(servers_.size()); }

    /** Untimed preload of an existing path (workload setup). */
    void preload(const std::string& p, ns::INodeType type);

  private:
    sim::Simulation& sim_;
    IndexFsConfig config_;
    sim::Rng rng_;
    net::Network network_;
    ns::NamespaceTree tree_;
    ConsistentHashRing ring_;
    std::vector<std::unique_ptr<IndexFsServer>> servers_;
    std::vector<std::unique_ptr<IndexFsClient>> clients_;
    workload::SystemMetrics metrics_;
};

}  // namespace lfs::indexfs
