#include "src/indexfs/lambda_indexfs.h"

#include <algorithm>

#include "src/util/hash.h"
#include "src/util/path.h"

namespace lfs::indexfs {

namespace {

sim::Task<void>
co_run_into(sim::Task<OpResult> task,
            std::shared_ptr<sim::OneShot<OpResult>> cell)
{
    OpResult result = co_await std::move(task);
    cell->try_set(std::move(result));
}

sim::Task<OpResult>
co_tcp_round(net::Network& network, faas::FunctionInstance* instance,
             faas::Invocation inv)
{
    sim::Simulation& sim = network.simulation();
    sim::SimTime t0 = sim.now();
    co_await network.transfer(net::LatencyClass::kTcp);
    sim::SimTime t1 = sim.now();
    OpResult result = co_await instance->serve_tcp(std::move(inv));
    sim::SimTime t2 = sim.now();
    co_await network.transfer(net::LatencyClass::kTcp);
    if (sim.attribution()) {
        result.ledger.add(sim::LatSeg::kNetClient,
                          (t1 - t0) + (sim.now() - t2));
    }
    co_return result;
}

sim::Task<void>
preload_put(lsm::LsmTree& tree, std::string key, ns::INode inode)
{
    Status st = co_await tree.put(std::move(key), std::move(inode));
    (void)st;
}

ns::INode
synth_inode(const std::string& p, ns::INodeType type)
{
    ns::INode inode;
    inode.name = path::basename(p);
    inode.type = type;
    inode.id = static_cast<ns::INodeId>(mix64(fnv1a(p)) >> 1) + 2;
    return inode;
}

}  // namespace

LambdaIndexNode::LambdaIndexNode(LambdaIndexFs& fs,
                                 faas::FunctionInstance& instance)
    : fs_(fs),
      instance_(instance),
      cache_(cache::CacheConfig{fs.config().cache_bytes})
{
    fs_.coordinator().join(instance_.deployment_id(), this);
    joined_ = true;
}

LambdaIndexNode::~LambdaIndexNode() = default;

void
LambdaIndexNode::on_shutdown()
{
    if (joined_) {
        fs_.coordinator().leave(instance_.deployment_id(), this);
        joined_ = false;
    }
}

bool
LambdaIndexNode::member_alive() const
{
    return instance_.alive();
}

sim::Task<void>
LambdaIndexNode::deliver_invalidation(std::string p, bool subtree)
{
    co_await instance_.compute(sim::usec(30));
    if (subtree) {
        cache_.invalidate_prefix(p);
    } else {
        cache_.invalidate(p);
    }
}

sim::Task<void>
LambdaIndexNode::write_coherence(Op op)
{
    cache_.invalidate(op.path);
    std::vector<coord::Coordinator::InvTarget> targets;
    targets.push_back(coord::Coordinator::InvTarget{
        fs_.deployment_for(op.path), op.path, false});
    // A hard link overwrites an existing destination row: its cached
    // copy (keyed at the dst deployment) must flush in the same round.
    if (has_dst_path(op.type) && fs_.lsm_for(op.dst).contains(op.dst)) {
        cache_.invalidate(op.dst);
        targets.push_back(coord::Coordinator::InvTarget{
            fs_.deployment_for(op.dst), op.dst, false});
    }
    co_await fs_.coordinator().invalidate(std::move(targets), this);
}

sim::Task<OpResult>
LambdaIndexNode::handle(faas::Invocation inv)
{
    if (inv.via_http && inv.client_vm >= 0 && inv.tcp_server >= 0) {
        fs_.tcp_registry().add_connection(inv.client_vm, inv.tcp_server,
                                          &instance_);
    }
    const Op& op = inv.op;
    const bool home =
        fs_.deployment_for(op.path) == instance_.deployment_id();

    sim::Simulation& sim = fs_.simulation();
    const bool attr = sim.attribution();
    if (is_read_op(op.type)) {
        sim::SimTime cpu_start = sim.now();
        co_await instance_.compute(fs_.config().fn_read_cpu);
        sim::SimTime cpu_wait = sim.now() - cpu_start;
        if (op.type == OpType::kStatFs) {
            // Sweep the per-partition counters (one pass per LSM
            // instance); the aggregate is never cached.
            OpResult result;
            for (int i = 0; i < fs_.lsm_count(); ++i) {
                co_await instance_.compute(fs_.config().fn_read_cpu);
            }
            if (attr) {
                result.ledger.add(sim::LatSeg::kNameNodeCpu,
                                  sim.now() - cpu_start);
            }
            result.stats.files = fs_.rows().files();
            result.stats.dirs = fs_.rows().dirs();
            result.stats.symlinks = fs_.rows().symlinks();
            result.stats.inodes =
                fs_.rows().rows() + fs_.sessions().orphans();
            result.stats.open_sessions = fs_.sessions().open_sessions();
            result.stats.orphans = fs_.sessions().orphans();
            result.stats.metadata_bytes = fs_.rows().metadata_bytes();
            if (const ns::INode* root =
                    fs_.authoritative_tree().get(ns::kRootId)) {
                result.inode = *root;
            }
            result.inodes_touched = result.stats.inodes;
            result.status = Status::make_ok();
            co_return result;
        }
        if (home) {
            auto cached = cache_.get(op.path);
            // A cached symlink row serves lstat, not open-for-read
            // (which must chase the target).
            if (cached.has_value() && cached->is_symlink() &&
                op.type == OpType::kReadFile) {
                cached.reset();
            }
            if (cached.has_value()) {
                OpResult result;
                if (attr) {
                    result.ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
                }
                result.status = Status::make_ok();
                result.inode = *cached;
                result.cache_hit = true;
                co_return result;
            }
        }
        sim::SimTime lsm_start = sim.now();
        auto got = co_await fs_.lsm_for(op.path).get(op.path);
        // Open-for-read chases symlink rows across partitions, bounded
        // like tree resolution (ELOOP past the follow limit).
        int hops = 0;
        bool via_symlink = false;
        while (got.ok() && op.type == OpType::kReadFile &&
               got->is_symlink()) {
            if (++hops > ns::kMaxSymlinkFollows) {
                OpResult result;
                if (attr) {
                    result.ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
                    result.ledger.add(sim::LatSeg::kStoreService,
                                      sim.now() - lsm_start);
                }
                result.status = Status::failed_precondition(
                    "symlink loop (ELOOP): " + op.path);
                co_return result;
            }
            std::string next = got->symlink_target;
            via_symlink = true;
            got = co_await fs_.lsm_for(next).get(next);
        }
        OpResult result;
        if (attr) {
            result.ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
            result.ledger.add(sim::LatSeg::kStoreService,
                              sim.now() - lsm_start);
        }
        if (!got.ok()) {
            result.status = got.status();
            co_return result;
        }
        result.status = Status::make_ok();
        result.inode = got.take();
        result.via_symlink = via_symlink;
        if (home && !via_symlink) {
            // A symlink-followed target lives under its canonical path
            // (likely another partition); never cache it under the alias.
            cache_.put(op.path, result.inode);
        }
        co_return result;
    }

    sim::SimTime cpu_start = sim.now();
    co_await instance_.compute(fs_.config().fn_write_cpu);
    sim::SimTime cpu_wait = sim.now() - cpu_start;
    // Coherence: in the flat metadata-table keyspace, creating a
    // never-before-seen key cannot invalidate cached state (there is no
    // negative caching), so only deletes/overwrites pay the INV round.
    // Session ops and GC touch the registry, not rows: no INV either.
    const bool row_mutating =
        op.type == OpType::kCreateFile || op.type == OpType::kMkdir ||
        op.type == OpType::kDeleteFile || op.type == OpType::kSymlink ||
        op.type == OpType::kHardLink || op.type == OpType::kSetAttr;
    sim::SimTime inv_start = sim.now();
    if (row_mutating && (op.type == OpType::kDeleteFile ||
                         fs_.lsm_for(op.path).contains(op.path))) {
        co_await write_coherence(op);
    }
    sim::SimTime lsm_start = sim.now();
    OpResult result;
    if (attr) {
        result.ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
        result.ledger.add(sim::LatSeg::kCoherence, lsm_start - inv_start);
    }
    sim::SimTime now_version = fs_.simulation().now();
    switch (op.type) {
      case OpType::kCreateFile:
      case OpType::kMkdir: {
        ns::INode inode = synth_inode(
            op.path, op.type == OpType::kMkdir ? ns::INodeType::kDirectory
                                               : ns::INodeType::kFile);
        inode.mtime = fs_.simulation().now();
        result.status =
            co_await fs_.lsm_for(op.path).put(op.path, inode);
        if (result.status.ok()) {
            fs_.rows().note_put(op.path, inode);
        }
        result.inode = inode;
        break;
      }
      case OpType::kDeleteFile: {
        if (fs_.sessions().open_count(op.path) > 0) {
            // Unlink the name; sessions still hold the inode, so stash
            // it as an orphan until the last close (or GC).
            auto got = co_await fs_.lsm_for(op.path).get(op.path);
            if (!got.ok()) {
                result.status = got.status();
                break;
            }
            ns::INode held = got.take();
            result.status = co_await fs_.lsm_for(op.path).del(op.path);
            if (result.status.ok()) {
                fs_.rows().note_del(op.path);
                fs_.sessions().orphan(op.path, held);
            }
            break;
        }
        result.status = co_await fs_.lsm_for(op.path).del(op.path);
        if (result.status.ok()) {
            fs_.rows().note_del(op.path);
        }
        break;
      }
      case OpType::kSymlink: {
        if (!path::is_valid(op.dst)) {
            result.status = Status::invalid_argument(
                "bad symlink target: " + op.dst);
            break;
        }
        ns::INode inode = synth_inode(op.path, ns::INodeType::kSymlink);
        inode.perms.mode = 0777;
        inode.mtime = now_version;
        inode.ctime = now_version;
        inode.symlink_target = path::normalize(op.dst);
        result.status =
            co_await fs_.lsm_for(op.path).put(op.path, inode);
        if (result.status.ok()) {
            fs_.rows().note_put(op.path, inode);
        }
        result.inode = inode;
        break;
      }
      case OpType::kHardLink: {
        auto got = co_await fs_.lsm_for(op.path).get(op.path);
        if (!got.ok()) {
            result.status = got.status();
            break;
        }
        ns::INode src = got.take();
        if (!src.is_file()) {
            result.status = Status::failed_precondition(
                "hard link target is not a file: " + op.path);
            break;
        }
        src.nlink += 1;
        src.ctime = now_version;
        ++src.version;
        ns::INode linked = src;
        linked.name = path::basename(op.dst);
        result.status = co_await fs_.lsm_for(op.path).put(op.path, src);
        if (!result.status.ok()) {
            break;
        }
        fs_.rows().note_put(op.path, src);
        result.status = co_await fs_.lsm_for(op.dst).put(op.dst, linked);
        if (result.status.ok()) {
            fs_.rows().note_put(op.dst, linked);
        }
        result.inode = linked;
        break;
      }
      case OpType::kSetAttr: {
        auto got = co_await fs_.lsm_for(op.path).get(op.path);
        if (!got.ok()) {
            result.status = got.status();
            break;
        }
        ns::INode inode = got.take();
        if (!op.user.is_superuser() && op.user.uid != inode.perms.owner) {
            result.status = Status::permission_denied(
                "not the owner of " + op.path);
            break;
        }
        if ((op.attr.mask & (AttrUpdate::kOwner | AttrUpdate::kGroup)) !=
                0 &&
            !op.user.is_superuser()) {
            result.status =
                Status::permission_denied("only the superuser may chown");
            break;
        }
        apply_attr_update(inode, op.attr, now_version);
        result.status =
            co_await fs_.lsm_for(op.path).put(op.path, inode);
        if (result.status.ok()) {
            fs_.rows().note_put(op.path, inode);
        }
        result.inode = inode;
        break;
      }
      case OpType::kOpenSession: {
        auto got = co_await fs_.lsm_for(op.path).get(op.path);
        if (!got.ok()) {
            result.status = got.status();
            break;
        }
        ns::INode inode = got.take();
        if (!inode.is_file()) {
            result.status = Status::failed_precondition(
                "not a file: " + op.path);
            break;
        }
        if (!ns::check_access(inode, op.user, ns::Access::kRead)) {
            result.status =
                Status::permission_denied("no read on " + op.path);
            break;
        }
        fs_.sessions().open(op.session_id, op.path,
                            now_version + op.lease_ttl);
        result.status = Status::make_ok();
        result.inode = inode;
        break;
      }
      case OpType::kCloseSession: {
        result.inodes_touched = fs_.sessions().close(op.session_id);
        result.status = Status::make_ok();
        break;
      }
      case OpType::kGcPrune: {
        // One sweep per partition, like the statfs collection.
        for (int i = 0; i < fs_.lsm_count(); ++i) {
            co_await instance_.compute(fs_.config().fn_write_cpu);
        }
        auto [expired, reclaimed] = fs_.sessions().gc(now_version);
        (void)expired;
        result.inodes_touched = reclaimed;
        result.stats.open_sessions = fs_.sessions().open_sessions();
        result.stats.orphans = fs_.sessions().orphans();
        result.status = Status::make_ok();
        break;
      }
      default:
        result.status =
            Status::invalid_argument("unsupported lambda-indexfs op");
        break;
    }
    if (attr) {
        result.ledger.add(sim::LatSeg::kStoreService, sim.now() - lsm_start);
    }
    if (result.status.ok()) {
        apply_to_mirror(fs_.authoritative_tree(), op, sim.now());
    }
    co_return result;
}

LambdaIndexClient::LambdaIndexClient(LambdaIndexFs& fs, int id, int vm,
                                     int tcp_server, sim::Rng rng)
    : fs_(fs), id_(id), vm_(vm), tcp_server_(tcp_server), rng_(rng)
{
}

sim::Task<OpResult>
LambdaIndexClient::execute(Op op)
{
    op.op_id = (static_cast<uint64_t>(id_ + 1) << 40) | ++next_seq_;
    sim::Span op_span =
        fs_.simulation().tracer().start_trace("client", op_name(op.type));
    op_span.annotate("path", op.path);
    op_span.annotate("client", static_cast<int64_t>(id_));
    op.trace = op_span.context();
    int target = fs_.deployment_for(op.path);
    sim::Simulation& sim = fs_.simulation();
    const bool attr = sim.attribution();
    sim::LatencyLedger acc;
    OpResult result;
    for (int attempt = 1; attempt <= fs_.config().max_attempts; ++attempt) {
        sim::SimTime attempt_start = sim.now();
        faas::FunctionInstance* conn =
            fs_.tcp_registry().find_on_vm(vm_, tcp_server_, target);
        bool use_http =
            conn == nullptr ||
            rng_.bernoulli(fs_.config().http_replace_probability);
        faas::Invocation inv;
        inv.op = op;
        inv.client_vm = vm_;
        inv.tcp_server = tcp_server_;
        inv.via_http = use_http;
        if (use_http) {
            result = co_await fs_.platform()
                         .deployment(target)
                         .invoke_via_gateway(std::move(inv));
        } else {
            auto cell =
                sim::make_shared_one_shot<OpResult>(fs_.simulation());
            cell->expire_after(fs_.config().request_timeout,
                               &client_timeout_result);
            sim::spawn(co_run_into(
                co_tcp_round(fs_.network(), conn, std::move(inv)), cell));
            result = co_await cell->wait();
        }
        // The shared predicate keeps retry classification consistent with
        // the λFS and HopsFS clients (RESOURCE_EXHAUSTED and ABORTED are
        // retryable here too).
        if (attr) {
            acc.merge(result.ledger);
            if (retryable_code(result.status.code())) {
                acc.add(sim::LatSeg::kClientRetryWait,
                        (sim.now() - attempt_start) - result.ledger.total());
            }
            result.ledger = acc;
        }
        if (!retryable_code(result.status.code())) {
            co_return result;
        }
        sim::SimTime backoff_start = sim.now();
        co_await sim::delay(fs_.simulation(),
                            rng_.uniform_duration(sim::msec(20),
                                                  sim::msec(100)));
        acc.add(sim::LatSeg::kClientBackoff, sim.now() - backoff_start);
    }
    if (attr) {
        result.ledger = acc;
    }
    co_return result;
}

LambdaIndexFs::LambdaIndexFs(sim::Simulation& sim, LambdaIndexFsConfig config)
    : sim_(sim),
      config_(config),
      rng_(config.seed),
      network_(sim, rng_.fork(), config.network),
      coordinator_(sim, network_),
      tcp_registry_(config.num_client_vms,
                    std::max(1, (config.clients_per_vm +
                                 config.max_clients_per_tcp_server - 1) /
                                    config.max_clients_per_tcp_server)),
      platform_(sim, network_, rng_.fork(),
                faas::PlatformConfig{config.total_vcpus, config.function}),
      metrics_(sim.metrics(), config.label)
{
    for (int i = 0; i < config_.num_lsm_instances; ++i) {
        lsm_instances_.push_back(std::make_unique<lsm::LsmTree>(
            sim_, rng_.fork(), config_.lsm));
        lsm_ring_.add_member(i);
    }
    for (int d = 0; d < config_.num_deployments; ++d) {
        auto& deployment = platform_.create_deployment(
            "IndexNode" + std::to_string(d), config_.function,
            [this](faas::FunctionInstance& instance) {
                return std::make_unique<LambdaIndexNode>(*this, instance);
            });
        deployment.prewarm(config_.prewarm_per_deployment);
        deployment_ring_.add_member(d);
    }
    int servers = std::max(1, (config_.clients_per_vm +
                               config_.max_clients_per_tcp_server - 1) /
                                  config_.max_clients_per_tcp_server);
    int total_clients = config_.num_client_vms * config_.clients_per_vm;
    for (int i = 0; i < total_clients; ++i) {
        int vm = i / config_.clients_per_vm;
        int within = i % config_.clients_per_vm;
        int server = std::min(within / config_.max_clients_per_tcp_server,
                              servers - 1);
        clients_.push_back(std::make_unique<LambdaIndexClient>(
            *this, i, vm, server, rng_.fork()));
    }
}

LambdaIndexFs::~LambdaIndexFs() = default;

int
LambdaIndexFs::deployment_for(const std::string& p) const
{
    return deployment_ring_.lookup_hash(mix64(path::parent_hash(p)));
}

lsm::LsmTree&
LambdaIndexFs::lsm_for(const std::string& p)
{
    return *lsm_instances_[static_cast<size_t>(
        lsm_ring_.lookup_hash(mix64(path::parent_hash(p))))];
}

void
LambdaIndexFs::preload(const std::string& p, ns::INodeType type)
{
    preload_mirror(mirror_, p, type);
    ns::INode inode = synth_inode(p, type);
    rows_.note_put(p, inode);
    sim::spawn(preload_put(lsm_for(p), p, std::move(inode)));
}

int
LambdaIndexFs::active_name_nodes() const
{
    return platform_.total_alive_instances();
}

double
LambdaIndexFs::cost_so_far() const
{
    return cost::lambda_cost(platform_.total_busy_gb_us(),
                             platform_.total_gateway_invocations());
}

}  // namespace lfs::indexfs
