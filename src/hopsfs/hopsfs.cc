#include "src/hopsfs/hopsfs.h"

#include <algorithm>

#include "src/util/hash.h"
#include "src/util/path.h"

namespace lfs::hopsfs {

namespace {

/** Client-side timeout of one non-subtree NameNode request. */
constexpr sim::SimTime kRequestTimeout = sim::sec(5);

/** One NameNode round trip over the client's TCP connection. */
sim::Task<OpResult>
co_nn_round(net::Network& network, HopsNameNode& nn, Op op)
{
    sim::LatencyLedger hops;
    co_await network.transfer(net::LatencyClass::kTcp, hops);
    OpResult result = co_await nn.serve(std::move(op));
    co_await network.transfer(net::LatencyClass::kTcp, hops);
    result.ledger.merge(hops);
    co_return result;
}

sim::Task<void>
co_run_into(sim::Task<OpResult> task,
            std::shared_ptr<sim::OneShot<OpResult>> cell)
{
    OpResult result = co_await std::move(task);
    cell->try_set(std::move(result));
}

}  // namespace

HopsFs::HopsFs(sim::Simulation& sim, HopsFsConfig config)
    : sim_(sim),
      config_(config),
      rng_(config.seed),
      network_(sim, rng_.fork(), config.network),
      store_(sim, network_, rng_.fork(), config.store),
      metrics_(sim.metrics(), config.label)
{
    HopsNameNodeConfig nn_config = config_.name_node;
    nn_config.cache_bytes = config_.cache_bytes_per_nn;
    for (int i = 0; i < config_.num_name_nodes; ++i) {
        name_nodes_.push_back(std::make_unique<HopsNameNode>(
            sim_, network_, store_, rng_.fork(), nn_config, i));
        ring_.add_member(i);
    }
    for (auto& nn : name_nodes_) {
        nn->peer_for_path = [this](const std::string& p) {
            return &owner_for(p);
        };
        nn->broadcast_prefix_invalidate = [this](const std::string& prefix) {
            for (auto& peer : name_nodes_) {
                peer->invalidate(prefix, true);
            }
        };
    }
    int total_clients = config_.num_client_vms * config_.clients_per_vm;
    for (int i = 0; i < total_clients; ++i) {
        clients_.push_back(std::make_unique<HopsClient>(*this, i, rng_.fork()));
    }
}

HopsFs::~HopsFs() = default;

HopsNameNode&
HopsFs::owner_for(const std::string& p)
{
    return *name_nodes_[static_cast<size_t>(
        ring_.lookup_hash(mix64(path::parent_hash(p))))];
}

HopsNameNode&
HopsFs::nth(int index)
{
    return *name_nodes_[static_cast<size_t>(index) % name_nodes_.size()];
}

double
HopsFs::cost_so_far() const
{
    double total_vcpus =
        config_.name_node.vcpus * static_cast<double>(config_.num_name_nodes);
    return cost::vm_cost(total_vcpus, sim_.now());
}

HopsClient::HopsClient(HopsFs& fs, int id, sim::Rng rng)
    : fs_(fs), id_(id), rng_(rng), rr_cursor_(id)
{
}

sim::Task<OpResult>
HopsClient::execute(Op op)
{
    op.op_id = (static_cast<uint64_t>(id_ + 1) << 40) | 0;
    sim::Span op_span =
        fs_.simulation().tracer().start_trace("client", op_name(op.type));
    op_span.annotate("path", op.path);
    op_span.annotate("client", static_cast<int64_t>(id_));
    op.trace = op_span.context();
    sim::Simulation& sim = fs_.simulation();
    sim::LatencyLedger acc;
    OpResult result;
    for (int attempt = 1; attempt <= fs_.config().max_attempts; ++attempt) {
        sim::SimTime attempt_start = sim.now();
        // +Cache clients route deterministically by partition so exactly
        // one NameNode caches each directory; vanilla clients spread
        // requests round-robin.
        HopsNameNode& nn = fs_.cached() ? fs_.owner_for(op.path)
                                        : fs_.nth(rr_cursor_++);
        auto cell = sim::make_shared_one_shot<OpResult>(fs_.simulation());
        // Subtree operations legitimately run for many seconds (Table 3).
        sim::SimTime timeout = is_subtree_op(op.type)
                                   ? sim::sec(1800)
                                   : kRequestTimeout;
        cell->expire_after(timeout, &client_timeout_result);
        sim::spawn(co_run_into(co_nn_round(fs_.network(), nn, op), cell));
        result = co_await cell->wait();
        acc.merge(result.ledger);
        if (retryable_code(result.status.code())) {
            acc.add(sim::LatSeg::kClientRetryWait,
                    (sim.now() - attempt_start) - result.ledger.total());
        }
        result.ledger = acc;
        if (!retryable_code(result.status.code())) {
            co_return result;
        }
        // Brief jittered pause before resubmitting.
        sim::SimTime backoff_start = sim.now();
        co_await sim::delay(fs_.simulation(),
                            rng_.uniform_duration(sim::msec(10),
                                                  sim::msec(50)));
        acc.add(sim::LatSeg::kClientBackoff, sim.now() - backoff_start);
    }
    result.ledger = acc;
    co_return result;
}

}  // namespace lfs::hopsfs
