/**
 * @file
 * CephFS-like baseline (§5.1, Figures 11-12): a serverful metadata
 * server (MDS) cluster that keeps the namespace in MDS memory (no
 * external store on the read path), journals mutations, and grants
 * clients *capabilities* — leases that let subsequent reads of the same
 * inode be served client-locally until a write revokes them. This makes
 * CephFS fast at small client counts while its fixed MDS cluster and
 * shared journal cap scalability; the capability system also makes its
 * write path cheaper than the NDB-transaction systems (§5.3.1).
 */
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/cache/metadata_cache.h"
#include "src/cost/pricing.h"
#include "src/namespace/namespace_tree.h"
#include "src/net/network.h"
#include "src/sim/primitives.h"
#include "src/sim/random.h"
#include "src/workload/dfs_interface.h"

namespace lfs::cephfs {

struct CephFsConfig {
    std::string label = "cephfs";
    /** CephFS multi-MDS scaling is limited; the cluster stays small. */
    int num_mds = 8;
    double vcpus_per_mds = 8.0;
    sim::SimTime read_cpu = sim::usec(180);
    sim::SimTime write_cpu = sim::usec(250);
    /** Shared metadata journal: append service and width. */
    sim::SimTime journal_service = sim::usec(300);
    int journal_concurrency = 8;
    /** Per-client capability cache budget (entries). */
    int caps_per_client = 2048;
    /** Client-local read service when a capability is held. */
    sim::SimTime client_local_op = sim::usec(40);
    net::NetworkConfig network;
    int num_client_vms = 8;
    int clients_per_vm = 128;
    uint64_t seed = 45;
};

class CephFs;

class CephClient : public workload::DfsClient {
  public:
    CephClient(CephFs& fs, int id, sim::Rng rng);

    sim::Task<OpResult> execute(Op op) override;

    /** Drop the capability for @p p (revocation callback). */
    void revoke(const std::string& p);

    int id() const { return id_; }

  private:
    CephFs& fs_;
    int id_;
    sim::Rng rng_;
    cache::MetadataCache caps_;  ///< capability cache (inode snapshots)
};

class CephFs : public workload::Dfs {
  public:
    CephFs(sim::Simulation& sim, CephFsConfig config);
    ~CephFs() override;

    // workload::Dfs
    std::string name() const override { return config_.label; }
    workload::DfsClient& client(size_t index) override
    {
        return *clients_.at(index);
    }
    size_t client_count() const override { return clients_.size(); }
    workload::SystemMetrics& metrics() override { return metrics_; }
    ns::NamespaceTree& authoritative_tree() override { return tree_; }
    int active_name_nodes() const override { return config_.num_mds; }
    double cost_so_far() const override;

    // internals used by clients
    sim::Simulation& simulation() { return sim_; }
    net::Network& network() { return network_; }
    const CephFsConfig& config() const { return config_; }

    /** Serve one op at the owning MDS (CPU + journal + cap bookkeeping). */
    sim::Task<OpResult> mds_serve(Op op, CephClient* requester);

    /** Record that @p client holds a cap on @p p. */
    void grant_cap(const std::string& p, CephClient* client);

  private:
    struct Mds {
        explicit Mds(sim::Simulation& sim, int64_t permits)
            : cpu(sim, permits)
        {
        }
        sim::Semaphore cpu;
    };

    Mds& mds_for(const std::string& p);

    /** Revoke all caps on @p p (and for dirs, their entry snapshots). */
    void revoke_caps(const std::string& p);

    /** Revoke every cap on @p prefix or any path under it. */
    void revoke_caps_under(const std::string& prefix);

    sim::Simulation& sim_;
    CephFsConfig config_;
    sim::Rng rng_;
    net::Network network_;
    ns::NamespaceTree tree_;
    std::vector<std::unique_ptr<Mds>> mds_;
    std::unique_ptr<sim::Semaphore> journal_;
    std::unordered_map<std::string, std::unordered_set<CephClient*>>
        cap_holders_;
    std::vector<std::unique_ptr<CephClient>> clients_;
    workload::SystemMetrics metrics_;
};

}  // namespace lfs::cephfs
