#include "src/indexfs/indexfs.h"

#include <iterator>

#include "src/util/hash.h"
#include "src/util/path.h"

namespace lfs::indexfs {

namespace {

/** Timed LSM insert used for namespace preloading during warmup. */
sim::Task<void>
preload_put(lsm::LsmTree& tree, std::string key, ns::INode inode)
{
    Status st = co_await tree.put(std::move(key), std::move(inode));
    (void)st;
}

}  // namespace

IndexFsServer::IndexFsServer(IndexFs& fs, sim::Simulation& sim, sim::Rng rng,
                             const IndexFsConfig& config, int id)
    : fs_(fs),
      sim_(sim),
      id_(id),
      cpu_service_(config.server_cpu),
      cpu_(sim, config.server_concurrency),
      lsm_(sim, rng, config.lsm)
{
}

ns::FsStats
IndexFsServer::local_stats() const
{
    ns::FsStats stats;
    stats.files = rows_.files();
    stats.dirs = rows_.dirs();
    stats.symlinks = rows_.symlinks();
    stats.inodes = rows_.rows() + sessions_.orphans();
    stats.open_sessions = sessions_.open_sessions();
    stats.orphans = sessions_.orphans();
    stats.metadata_bytes = rows_.metadata_bytes();
    return stats;
}

sim::Task<OpResult>
IndexFsServer::serve(Op op, sim::SimTime now_version)
{
    sim::SimTime cpu_start = sim_.now();
    co_await cpu_.acquire();
    co_await sim::delay(sim_, cpu_service_);
    cpu_.release();

    OpResult result;
    sim::SimTime lsm_start = sim_.now();
    if (sim_.attribution()) {
        result.ledger.add(sim::LatSeg::kNameNodeCpu, lsm_start - cpu_start);
    }
    switch (op.type) {
      case OpType::kCreateFile:
      case OpType::kMkdir: {
        ns::INode inode;
        inode.name = path::basename(op.path);
        inode.type = op.type == OpType::kMkdir ? ns::INodeType::kDirectory
                                               : ns::INodeType::kFile;
        inode.perms.owner = op.user.uid;
        inode.mtime = now_version;
        inode.ctime = now_version;
        // Deterministic synthetic id: IndexFS rows are keyed by path.
        inode.id = static_cast<ns::INodeId>(mix64(fnv1a(op.path)) >> 1) + 2;
        result.status = co_await lsm_.put(op.path, inode);
        if (result.status.ok()) {
            rows_.note_put(op.path, inode);
        }
        result.inode = inode;
        break;
      }
      case OpType::kDeleteFile: {
        if (sessions_.open_count(op.path) > 0) {
            // Sessions hold the row open: unlink the name but stash the
            // inode as an orphan until the last holder closes.
            auto got = co_await lsm_.get(op.path);
            if (!got.ok()) {
                result.status = got.status();
                co_return result;
            }
            ns::INode held = got.take();
            result.status = co_await lsm_.del(op.path);
            if (result.status.ok()) {
                rows_.note_del(op.path);
                sessions_.orphan(op.path, held);
            }
            break;
        }
        result.status = co_await lsm_.del(op.path);
        if (result.status.ok()) {
            rows_.note_del(op.path);
        }
        break;
      }
      case OpType::kSymlink: {
        if (!path::is_valid(op.dst)) {
            result.status = Status::invalid_argument(
                "bad symlink target: " + op.dst);
            break;
        }
        ns::INode inode;
        inode.name = path::basename(op.path);
        inode.type = ns::INodeType::kSymlink;
        inode.perms.owner = op.user.uid;
        inode.perms.mode = 0777;
        inode.mtime = now_version;
        inode.ctime = now_version;
        inode.id = static_cast<ns::INodeId>(mix64(fnv1a(op.path)) >> 1) + 2;
        inode.symlink_target = path::normalize(op.dst);
        result.status = co_await lsm_.put(op.path, inode);
        if (result.status.ok()) {
            rows_.note_put(op.path, inode);
        }
        result.inode = inode;
        break;
      }
      case OpType::kHardLink: {
        auto got = co_await lsm_.get(op.path);
        if (!got.ok()) {
            result.status = got.status();
            co_return result;
        }
        ns::INode src = got.take();
        if (!src.is_file()) {
            result.status = Status::failed_precondition(
                "hard link target is not a file: " + op.path);
            co_return result;
        }
        src.nlink += 1;
        src.ctime = now_version;
        ++src.version;
        ns::INode linked = src;
        linked.name = path::basename(op.dst);
        result.status = co_await lsm_.put(op.path, src);
        if (!result.status.ok()) {
            co_return result;
        }
        rows_.note_put(op.path, src);
        // The new name may hash to a different partition: hop to the
        // owning server's store (server-to-server row insert).
        IndexFsServer& dst_owner = fs_.server_for(op.dst);
        if (dst_owner.id() != id_) {
            co_await fs_.network().round_trip(net::LatencyClass::kTcp);
        }
        result.status = co_await dst_owner.lsm().put(op.dst, linked);
        if (result.status.ok()) {
            dst_owner.rows().note_put(op.dst, linked);
        }
        result.inode = linked;
        break;
      }
      case OpType::kSetAttr: {
        auto got = co_await lsm_.get(op.path);
        if (!got.ok()) {
            result.status = got.status();
            co_return result;
        }
        ns::INode inode = got.take();
        if (!op.user.is_superuser() && op.user.uid != inode.perms.owner) {
            result.status = Status::permission_denied(
                "not the owner of " + op.path);
            co_return result;
        }
        if ((op.attr.mask & (AttrUpdate::kOwner | AttrUpdate::kGroup)) !=
                0 &&
            !op.user.is_superuser()) {
            result.status =
                Status::permission_denied("only the superuser may chown");
            co_return result;
        }
        apply_attr_update(inode, op.attr, now_version);
        result.status = co_await lsm_.put(op.path, inode);
        if (result.status.ok()) {
            rows_.note_put(op.path, inode);
        }
        result.inode = inode;
        break;
      }
      case OpType::kOpenSession: {
        auto got = co_await lsm_.get(op.path);
        if (!got.ok()) {
            result.status = got.status();
            co_return result;
        }
        ns::INode inode = got.take();
        if (!inode.is_file()) {
            result.status = Status::failed_precondition(
                "not a file: " + op.path);
            co_return result;
        }
        if (!ns::check_access(inode, op.user, ns::Access::kRead)) {
            result.status =
                Status::permission_denied("no read on " + op.path);
            co_return result;
        }
        sessions_.open(op.session_id, op.path, now_version + op.lease_ttl);
        result.status = Status::make_ok();
        result.inode = inode;
        break;
      }
      case OpType::kCloseSession: {
        result.inodes_touched = sessions_.close(op.session_id);
        result.status = Status::make_ok();
        break;
      }
      case OpType::kGcPrune: {
        auto [expired, reclaimed] = sessions_.gc(now_version);
        (void)expired;
        result.inodes_touched = reclaimed;
        result.stats = local_stats();
        result.status = Status::make_ok();
        break;
      }
      case OpType::kStatFs: {
        result.stats = local_stats();
        result.status = Status::make_ok();
        break;
      }
      case OpType::kStat:
      case OpType::kReadFile: {
        auto got = co_await lsm_.get(op.path);
        if (!got.ok()) {
            result.status = got.status();
            co_return result;
        }
        result.status = Status::make_ok();
        result.inode = got.take();
        break;
      }
      default:
        result.status =
            Status::invalid_argument("unsupported IndexFS op");
        break;
    }
    if (sim_.attribution()) {
        // LSM-tree work (memtable, WAL, compaction stalls) is the
        // store-service share of an IndexFS op.
        result.ledger.add(sim::LatSeg::kStoreService,
                          sim_.now() - lsm_start);
    }
    co_return result;
}

IndexFsClient::IndexFsClient(IndexFs& fs, int id, sim::Rng rng)
    : fs_(fs), id_(id), rng_(rng)
{
}

sim::Task<OpResult>
IndexFsClient::execute(Op op)
{
    sim::Span op_span =
        fs_.simulation().tracer().start_trace("client", op_name(op.type));
    op_span.annotate("path", op.path);
    op_span.annotate("client", static_cast<int64_t>(id_));
    op.trace = op_span.context();
    sim::Simulation& sim = fs_.simulation();
    // Namespace-wide ops (statfs, GC) fan out to every partition and
    // fold the per-server counters; they never touch the lease cache.
    if (op.type == OpType::kStatFs || op.type == OpType::kGcPrune) {
        OpResult agg;
        agg.status = Status::make_ok();
        agg.inodes_touched = 0;
        for (int s = 0; s < fs_.server_count(); ++s) {
            sim::SimTime f0 = sim.now();
            co_await fs_.network().transfer(net::LatencyClass::kTcp);
            sim::SimTime f1 = sim.now();
            OpResult part = co_await fs_.server(s).serve(op, sim.now());
            sim::SimTime f2 = sim.now();
            co_await fs_.network().transfer(net::LatencyClass::kTcp);
            if (sim.attribution()) {
                part.ledger.add(sim::LatSeg::kNetClient,
                                (f1 - f0) + (sim.now() - f2));
                agg.ledger.merge(part.ledger);
            }
            if (!part.status.ok()) {
                agg.status = part.status;
                co_return agg;
            }
            agg.inodes_touched += part.inodes_touched;
            ns::accumulate(agg.stats, part.stats);
        }
        if (const ns::INode* root = fs_.authoritative_tree().get(ns::kRootId)) {
            agg.inode = *root;
        }
        co_return agg;
    }
    // Lease-cached read path (stateless client caching). A cached
    // symlink row can serve lstat but not open-for-read, which must
    // chase the target.
    if (is_read_op(op.type)) {
        auto it = leases_.find(op.path);
        if (it != leases_.end()) {
            if (it->second.expires <= fs_.simulation().now()) {
                leases_.erase(it);
            } else if (!(it->second.inode.is_symlink() &&
                         op.type == OpType::kReadFile)) {
                sim::SimTime local_start = fs_.simulation().now();
                co_await sim::delay(fs_.simulation(),
                                    fs_.config().client_local_op);
                OpResult result;
                if (fs_.simulation().attribution()) {
                    result.ledger.add(
                        sim::LatSeg::kNameNodeCpu,
                        fs_.simulation().now() - local_start);
                }
                result.status = Status::make_ok();
                result.inode = it->second.inode;
                result.cache_hit = true;
                co_return result;
            }
        }
    }
    sim::SimTime t0 = sim.now();
    co_await fs_.network().transfer(net::LatencyClass::kTcp);
    sim::SimTime t1 = sim.now();
    OpResult result = co_await fs_.server_for(op.path).serve(
        op, fs_.simulation().now());
    sim::SimTime t2 = sim.now();
    co_await fs_.network().transfer(net::LatencyClass::kTcp);
    if (sim.attribution()) {
        result.ledger.add(sim::LatSeg::kNetClient,
                          (t1 - t0) + (sim.now() - t2));
    }
    // Open-for-read chases symlink rows client-side (the client owns
    // routing in IndexFS): each hop re-routes to the target's server,
    // bounded like tree resolution.
    std::string lease_key = op.path;
    if (op.type == OpType::kReadFile) {
        int hops = 0;
        while (result.status.ok() && result.inode.is_symlink()) {
            if (++hops > ns::kMaxSymlinkFollows) {
                result.status = Status::failed_precondition(
                    "symlink loop (ELOOP): " + op.path);
                break;
            }
            Op hop = op;
            hop.path = result.inode.symlink_target;
            lease_key = hop.path;
            sim::SimTime h0 = sim.now();
            co_await fs_.network().transfer(net::LatencyClass::kTcp);
            sim::SimTime h1 = sim.now();
            OpResult next = co_await fs_.server_for(hop.path).serve(
                hop, sim.now());
            sim::SimTime h2 = sim.now();
            co_await fs_.network().transfer(net::LatencyClass::kTcp);
            if (sim.attribution()) {
                next.ledger.add(sim::LatSeg::kNetClient,
                                (h1 - h0) + (sim.now() - h2));
                next.ledger.merge(result.ledger);
            }
            next.via_symlink = true;
            result = std::move(next);
        }
    }
    if (result.status.ok()) {
        if (is_read_op(op.type)) {
            // Bound the lease cache without nuking it wholesale: drop
            // expired leases first (they are dead weight), then — if the
            // cache is still over budget — evict the lease closest to
            // expiry. Clearing the whole map here used to throw away
            // every live lease whenever the cap was crossed, turning the
            // hot read path into a miss storm.
            size_t cap =
                static_cast<size_t>(fs_.config().client_cache_entries);
            if (leases_.size() > cap) {
                sim::SimTime now = fs_.simulation().now();
                for (auto it = leases_.begin(); it != leases_.end();) {
                    it = it->second.expires <= now ? leases_.erase(it)
                                                   : std::next(it);
                }
                while (leases_.size() > cap) {
                    auto victim = leases_.begin();
                    for (auto it = std::next(leases_.begin());
                         it != leases_.end(); ++it) {
                        if (it->second.expires < victim->second.expires) {
                            victim = it;
                        }
                    }
                    leases_.erase(victim);
                }
            }
            // Keyed by the canonical row path: a symlink-followed read
            // leases the target under its own name, never the alias.
            leases_[lease_key] = Lease{
                result.inode,
                fs_.simulation().now() + fs_.config().lease_ttl};
        } else {
            apply_to_mirror(fs_.authoritative_tree(), op,
                            fs_.simulation().now());
        }
    }
    co_return result;
}

IndexFs::IndexFs(sim::Simulation& sim, IndexFsConfig config)
    : sim_(sim),
      config_(config),
      rng_(config.seed),
      network_(sim, rng_.fork(), config.network),
      metrics_(sim.metrics(), config.label)
{
    for (int i = 0; i < config_.num_servers; ++i) {
        servers_.push_back(std::make_unique<IndexFsServer>(
            *this, sim_, rng_.fork(), config_, i));
        ring_.add_member(i);
    }
    int total_clients = config_.num_client_vms * config_.clients_per_vm;
    for (int i = 0; i < total_clients; ++i) {
        clients_.push_back(
            std::make_unique<IndexFsClient>(*this, i, rng_.fork()));
    }
}

IndexFs::~IndexFs() = default;

IndexFsServer&
IndexFs::server_for(const std::string& p)
{
    // Directory-name hash partitioning (§4's simplified GIGA+ scheme).
    return *servers_[static_cast<size_t>(
        ring_.lookup_hash(mix64(path::parent_hash(p))))];
}

void
IndexFs::preload(const std::string& p, ns::INodeType type)
{
    preload_mirror(mirror_, p, type);
    ns::INode inode;
    inode.name = path::basename(p);
    inode.type = type;
    inode.id = static_cast<ns::INodeId>(mix64(fnv1a(p)) >> 1) + 2;
    // Untimed insert directly into the owning server's memtable; any
    // triggered flushes run during warmup.
    server_for(p).rows().note_put(p, inode);
    sim::spawn(preload_put(server_for(p).lsm(), p, inode));
}

double
IndexFs::cost_so_far() const
{
    // 4 co-located servers on client VMs: bill 8 vCPUs each.
    return cost::vm_cost(8.0 * static_cast<double>(config_.num_servers),
                         sim_.now());
}

}  // namespace lfs::indexfs
