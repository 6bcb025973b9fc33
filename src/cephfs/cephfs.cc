#include "src/cephfs/cephfs.h"

#include <algorithm>
#include <cmath>

#include "src/namespace/apply.h"
#include "src/util/hash.h"
#include "src/util/path.h"

namespace lfs::cephfs {

CephClient::CephClient(CephFs& fs, int id, sim::Rng rng)
    : fs_(fs),
      id_(id),
      rng_(rng),
      // Capability entries are inode snapshots; budget the cache by the
      // approximate entry footprint.
      caps_(cache::CacheConfig{
          static_cast<size_t>(fs.config().caps_per_client) * 128})
{
}

void
CephClient::revoke(const std::string& p)
{
    caps_.invalidate(p);
}

sim::Task<OpResult>
CephClient::execute(Op op)
{
    sim::Simulation& sim = fs_.simulation();
    // Capability hit: read served entirely client-side. statfs is
    // never cap-cacheable (global counters); a held symlink cap can
    // satisfy lstat but not open-for-read, which needs the target.
    if (is_read_op(op.type) && op.type != OpType::kLs &&
        op.type != OpType::kStatFs) {
        auto held = caps_.get(op.path);
        if (held.has_value() && held->is_symlink() &&
            op.type == OpType::kReadFile) {
            held.reset();
        }
        if (held.has_value()) {
            sim::SimTime local_start = sim.now();
            co_await sim::delay(fs_.simulation(),
                                fs_.config().client_local_op);
            OpResult result;
            // The client IS the metadata service here: the cap-hit
            // lookup is its entire service time.
            result.ledger.add(sim::LatSeg::kNameNodeCpu,
                              sim.now() - local_start);
            if (op.type == OpType::kReadFile && !held->is_file()) {
                result.status =
                    Status::failed_precondition("not a file: " + op.path);
                co_return result;
            }
            result.status = Status::make_ok();
            result.inode = *held;
            result.cache_hit = true;
            co_return result;
        }
    }
    // Cap miss or mutating op: round trip to the owning MDS.
    sim::LatencyLedger hops;
    co_await fs_.network().transfer(net::LatencyClass::kTcp, hops);
    const sim::SimTime mds_start = sim.now();
    OpResult result = co_await fs_.mds_serve(op, this);
    // Coarse attribution: everything inside the MDS (CPU queueing,
    // journal append, cap revocation) counts as service compute.
    result.ledger.add(sim::LatSeg::kNameNodeCpu, sim.now() - mds_start);
    co_await fs_.network().transfer(net::LatencyClass::kTcp, hops);
    result.ledger.merge(hops);
    if (result.status.ok() && is_read_op(op.type) &&
        op.type != OpType::kLs && op.type != OpType::kStatFs &&
        !result.via_symlink) {
        // A symlink-resolved inode lives at its canonical path; caching
        // it under the alias would dodge revoke_caps on the real path.
        caps_.put(op.path, result.inode);
        fs_.grant_cap(op.path, this);
    }
    co_return result;
}

CephFs::CephFs(sim::Simulation& sim, CephFsConfig config)
    : sim_(sim),
      config_(config),
      rng_(config.seed),
      network_(sim, rng_.fork(), config.network),
      metrics_(sim.metrics(), config.label)
{
    journal_ = std::make_unique<sim::Semaphore>(
        sim_, config_.journal_concurrency);
    for (int i = 0; i < config_.num_mds; ++i) {
        mds_.push_back(std::make_unique<Mds>(
            sim_,
            std::max<int64_t>(1, std::llround(config_.vcpus_per_mds))));
    }
    int total_clients = config_.num_client_vms * config_.clients_per_vm;
    for (int i = 0; i < total_clients; ++i) {
        clients_.push_back(
            std::make_unique<CephClient>(*this, i, rng_.fork()));
    }
}

CephFs::~CephFs() = default;

CephFs::Mds&
CephFs::mds_for(const std::string& p)
{
    // Static approximation of CephFS' dynamic subtree partitioning:
    // directories pin to MDS ranks by parent-path hash.
    size_t idx = mix64(path::parent_hash(p)) % mds_.size();
    return *mds_[idx];
}

void
CephFs::grant_cap(const std::string& p, CephClient* client)
{
    cap_holders_[p].insert(client);
}

void
CephFs::revoke_caps(const std::string& p)
{
    auto it = cap_holders_.find(p);
    if (it == cap_holders_.end()) {
        return;
    }
    for (CephClient* holder : it->second) {
        holder->revoke(p);
    }
    cap_holders_.erase(it);
}

void
CephFs::revoke_caps_under(const std::string& prefix)
{
    for (auto it = cap_holders_.begin(); it != cap_holders_.end();) {
        if (path::is_under(it->first, prefix)) {
            for (CephClient* holder : it->second) {
                holder->revoke(it->first);
            }
            it = cap_holders_.erase(it);
        } else {
            ++it;
        }
    }
}

sim::Task<OpResult>
CephFs::mds_serve(Op op, CephClient* requester)
{
    (void)requester;
    Mds& mds = mds_for(op.path);
    co_await mds.cpu.acquire();
    co_await sim::delay(sim_, is_read_op(op.type) ? config_.read_cpu
                                                  : config_.write_cpu);
    mds.cpu.release();

    if (!is_read_op(op.type)) {
        // Mutations: revoke outstanding capabilities, append to the
        // shared journal, then apply in MDS memory.
        revoke_caps(op.path);
        revoke_caps(path::parent(op.path));
        if (has_dst_path(op.type)) {
            revoke_caps(op.dst);
            revoke_caps(path::parent(op.dst));
        }
        co_await journal_->acquire();
        co_await sim::delay(sim_, config_.journal_service);
        journal_->release();
    }
    OpResult result = ns::apply(tree_, op, sim_.now());
    if (result.status.ok() &&
        (op.type == OpType::kSubtreeDelete || op.type == OpType::kMv ||
         op.type == OpType::kSubtreeMv)) {
        // A deleted or moved subtree loses every cap under it wholesale.
        revoke_caps_under(op.path);
    }
    co_return result;
}

double
CephFs::cost_so_far() const
{
    return cost::vm_cost(config_.vcpus_per_mds *
                             static_cast<double>(config_.num_mds),
                         sim_.now());
}

}  // namespace lfs::cephfs
