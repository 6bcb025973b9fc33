#include "src/indexfs/lambda_indexfs.h"

#include <algorithm>
#include <utility>

#include "src/indexfs/lsm_timing.h"
#include "src/namespace/apply.h"
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
LambdaIndexNode::write_coherence(const std::string& path)
{
    cache_.invalidate(path);
    const coord::Coordinator::InvTarget target{fs_.deployment_for(path),
                                               path, false};
    co_await fs_.coordinator().invalidate({&target, 1}, this);
}

sim::Task<OpResult>
LambdaIndexNode::handle(faas::Invocation inv)
{
    if (inv.via_http && inv.client_vm >= 0 && inv.tcp_server >= 0) {
        fs_.tcp_registry().add_connection(inv.client_vm, inv.tcp_server,
                                          &instance_);
    }
    const Op& op = inv.op;
    ns::NamespaceTree& tree = fs_.authoritative_tree();
    sim::Simulation& sim = fs_.simulation();
    const bool attr = sim.attribution();
    const sim::SimTime fn_cpu =
        is_read_op(op.type) ? fs_.config().fn_read_cpu
                            : fs_.config().fn_write_cpu;
    sim::SimTime cpu_start = sim.now();
    co_await instance_.compute(fn_cpu);
    sim::SimTime cpu_wait = sim.now() - cpu_start;

    if (op.type == OpType::kStatFs || op.type == OpType::kGcPrune) {
        // One sweep per LSM partition, then apply once; the aggregate is
        // never cached.
        for (int i = 0; i < fs_.lsm_count(); ++i) {
            co_await instance_.compute(fn_cpu);
        }
        OpResult result = ns::apply(tree, op, sim.now());
        if (attr) {
            result.ledger.add(sim::LatSeg::kNameNodeCpu,
                              sim.now() - cpu_start);
        }
        co_return result;
    }

    if (is_read_op(op.type)) {
        const bool home =
            fs_.deployment_for(op.path) == instance_.deployment_id();
        if (home) {
            if (auto cached = cache_.get(op.path)) {
                if (auto hit = ns::apply_cached(tree, op, *cached)) {
                    if (attr) {
                        hit->ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
                    }
                    co_return std::move(*hit);
                }
            }
        }
        // An INV landing while the row is fetched wins over the install.
        const cache::MetadataCache::ReadToken token =
            home ? cache_.begin_read() : 0;
        sim::SimTime lsm_start = sim.now();
        OpResult result =
            co_await apply_and_charge(sim, tree, op, fs_.lsm_for(op.path));
        // Open-for-read fetches each symlink hop's row from its own
        // partition.
        if (op.type == OpType::kReadFile && result.status.ok() &&
            result.via_symlink) {
            std::string p = op.path;
            for (int hops = 0; hops < ns::kMaxSymlinkFollows; ++hops) {
                std::string next = symlink_hop(tree, p);
                if (next.empty()) {
                    break;
                }
                (void)co_await fs_.lsm_for(next).get(next);
                p = std::move(next);
            }
        }
        if (attr) {
            result.ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
            result.ledger.add(sim::LatSeg::kStoreService,
                              sim.now() - lsm_start);
        }
        if (home) {
            // A symlink-followed target lives under its canonical path
            // (likely another partition); never cache it under the alias.
            if (result.status.ok() && !result.via_symlink) {
                cache_.put_guarded(op.path, result.inode, token);
            }
            cache_.end_read(token);
        }
        co_return result;
    }

    // Coherence: only a row that existed before the op can be cached
    // (there is no negative caching), so only the ops that rewrite or
    // unlink one — delete, setattr, a link's source — pay the INV round.
    sim::SimTime inv_start = sim.now();
    const RowCalls calls = row_calls(op.type);
    ns::IdChain existing;
    if ((calls == RowCalls::kDel || calls == RowCalls::kGetPut ||
         calls == RowCalls::kLink) &&
        tree.resolve_ids(op.path, ns::UserContext{}, ns::Follow::kNoFinal,
                         &existing)
            .ok()) {
        co_await write_coherence(op.path);
    }
    sim::SimTime lsm_start = sim.now();
    OpResult result = co_await apply_and_charge(
        sim, tree, op, fs_.lsm_for(op.path),
        has_dst_path(op.type) ? &fs_.lsm_for(op.dst) : nullptr);
    if (attr) {
        result.ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
        result.ledger.add(sim::LatSeg::kCoherence, lsm_start - inv_start);
        result.ledger.add(sim::LatSeg::kStoreService, sim.now() - lsm_start);
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
    if (row_calls(op.type) == RowCalls::kUnsupported) {
        OpResult result;
        result.status =
            Status::invalid_argument("unsupported lambda-indexfs op");
        co_return result;
    }
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
    preload_row(tree_, lsm_for(p), p, type);
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
