#include "src/indexfs/indexfs.h"

#include <iterator>
#include <optional>
#include <utility>

#include "src/indexfs/lsm_timing.h"
#include "src/namespace/apply.h"
#include "src/util/hash.h"
#include "src/util/path.h"

namespace lfs::indexfs {

namespace {

/** Leases one client caches before it evicts. */
constexpr size_t kClientCacheEntries = 4096;

/**
 * One client-server exchange: the request hop, @p served on the server,
 * the reply hop (attributed as client network time).
 */
sim::Task<OpResult>
exchange(net::Network& network, sim::Task<OpResult> served)
{
    sim::LatencyLedger hops;
    co_await network.transfer(net::LatencyClass::kTcp, hops);
    OpResult result = co_await std::move(served);
    co_await network.transfer(net::LatencyClass::kTcp, hops);
    result.ledger.merge(hops);
    co_return result;
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

sim::Task<void>
IndexFsServer::spend_cpu(sim::LatencyLedger& ledger)
{
    sim::SimTime cpu_start = sim_.now();
    co_await cpu_.acquire();
    co_await sim::delay(sim_, cpu_service_);
    cpu_.release();
    ledger.add(sim::LatSeg::kNameNodeCpu, sim_.now() - cpu_start);
}

sim::Task<OpResult>
IndexFsServer::serve(const Op& op)
{
    sim::LatencyLedger led;
    co_await spend_cpu(led);
    sim::SimTime lsm_start = sim_.now();
    IndexFsServer* dst =
        has_dst_path(op.type) ? &fs_.server_for(op.dst) : nullptr;
    std::vector<ns::INode> chain;
    OpResult result = co_await apply_and_charge(
        sim_, fs_.authoritative_tree(), op, chain, lsm_,
        dst != nullptr ? &dst->lsm() : nullptr,
        dst != nullptr && dst != this ? &fs_.network() : nullptr);
    // LSM-tree work (memtable, WAL, compaction stalls) is the
    // store-service share of an IndexFS op.
    led.add(sim::LatSeg::kStoreService, sim_.now() - lsm_start);
    result.ledger = led;
    co_return result;
}

sim::Task<OpResult>
IndexFsServer::visit(const std::string* key)
{
    OpResult result;
    co_await spend_cpu(result.ledger);
    sim::SimTime lsm_start = sim_.now();
    if (key != nullptr) {
        (void)co_await lsm_.get(*key);
    }
    result.ledger.add(sim::LatSeg::kStoreService, sim_.now() - lsm_start);
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
    ns::NamespaceTree& tree = fs_.authoritative_tree();
    if (row_calls(op.type) == RowCalls::kUnsupported) {
        OpResult result;
        result.status = Status::invalid_argument("unsupported IndexFS op");
        co_return result;
    }
    // Namespace-wide ops (statfs, GC) sweep every partition, then apply
    // once; they never touch the lease cache.
    if (op.type == OpType::kStatFs || op.type == OpType::kGcPrune) {
        sim::LatencyLedger ledger;
        for (int s = 0; s < fs_.server_count(); ++s) {
            OpResult part = co_await exchange(fs_.network(),
                                              fs_.server(s).visit(nullptr));
            ledger.merge(part.ledger);
        }
        OpResult result = ns::apply(tree, op, sim.now());
        result.ledger = ledger;
        co_return result;
    }
    // Lease-cached read path (stateless client caching). A leased
    // symlink serves lstat but not open-for-read, which must chase the
    // target.
    if (is_read_op(op.type)) {
        auto it = leases_.find(op.path);
        if (it != leases_.end()) {
            if (it->second.expires <= sim.now()) {
                leases_.erase(it);
            } else if (std::optional<OpResult> hit = ns::apply_cached(
                           tree, op, it->second.inode)) {
                sim::SimTime local_start = sim.now();
                co_await sim::delay(sim, fs_.config().client_local_op);
                hit->ledger.add(sim::LatSeg::kNameNodeCpu,
                                sim.now() - local_start);
                co_return std::move(*hit);
            }
        }
    }
    OpResult result = co_await exchange(fs_.network(),
                                        fs_.server_for(op.path).serve(op));
    // A mutation ends this client's own leases on what it changed, so
    // they cannot answer for the state it just replaced.
    if (!is_read_op(op.type)) {
        leases_.erase(op.path);
        if (has_dst_path(op.type)) {
            leases_.erase(op.dst);
        }
    }
    // Open-for-read chases symlink rows client-side (the client owns
    // routing in IndexFS): each hop re-routes to the target's server.
    if (op.type == OpType::kReadFile && result.status.ok() &&
        result.via_symlink) {
        std::string p = op.path;
        for (int hops = 0; hops < ns::kMaxSymlinkFollows; ++hops) {
            std::string next = symlink_hop(tree, p);
            if (next.empty()) {
                break;
            }
            OpResult hop = co_await exchange(
                fs_.network(), fs_.server_for(next).visit(&next));
            result.ledger.merge(hop.ledger);
            p = std::move(next);
        }
    }
    // A symlink-followed result is never leased under the alias.
    if (result.status.ok() && is_read_op(op.type) && !result.via_symlink) {
        // Bound the lease cache without nuking it wholesale: drop
        // expired leases first (they are dead weight), then — if the
        // cache is still over budget — evict the lease closest to
        // expiry. Clearing the whole map here used to throw away
        // every live lease whenever the cap was crossed, turning the
        // hot read path into a miss storm.
        if (leases_.size() > kClientCacheEntries) {
            sim::SimTime now = sim.now();
            for (auto it = leases_.begin(); it != leases_.end();) {
                it = it->second.expires <= now ? leases_.erase(it)
                                               : std::next(it);
            }
            while (leases_.size() > kClientCacheEntries) {
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
        leases_[op.path] =
            Lease{result.inode, sim.now() + fs_.config().lease_ttl};
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
    preload_row(tree_, server_for(p).lsm(), p, type);
}

double
IndexFs::cost_so_far() const
{
    // 4 co-located servers on client VMs: bill 8 vCPUs each.
    return cost::vm_cost(8.0 * static_cast<double>(config_.num_servers),
                         sim_.now());
}

}  // namespace lfs::indexfs
