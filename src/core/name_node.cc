#include "src/core/name_node.h"

#include <algorithm>

#include "src/namespace/apply.h"
#include "src/sim/log.h"
#include "src/util/path.h"

namespace lfs::core {

namespace {

/** Max helper NameNodes recruited for one subtree operation. */
constexpr int kMaxOffloadHelpers = 8;

/** The most recently recycled entry of @p pool, or a fresh one. */
template <typename T>
T
take_from(std::vector<T>& pool)
{
    if (pool.empty()) {
        return T{};
    }
    T out = std::move(pool.back());
    pool.pop_back();
    return out;
}

}  // namespace

NameNode::NameNode(LfsRuntime& runtime, faas::FunctionInstance& instance,
                   NameNodeConfig config)
    : rt_(runtime),
      instance_(instance),
      config_(config),
      cache_(cache::CacheConfig{config.cache_bytes}),
      cache_hits_(rt_.sim.metrics().counter(
          "cache.hits",
          {{"deployment", std::to_string(instance.deployment_id())}})),
      cache_misses_(rt_.sim.metrics().counter(
          "cache.misses",
          {{"deployment", std::to_string(instance.deployment_id())}})),
      shed_expired_(rt_.sim.metrics().counter(
          "overload.namenode_shed",
          {{"deployment", std::to_string(instance.deployment_id())}}))
{
    // A stateless NameNode caches nothing, so no write ever needs to
    // invalidate it.
    if (config_.cache_bytes > 0) {
        rt_.coordinator.join(instance_.deployment_id(), this);
        in_coordinator_ = true;
    }
    if (config_.report_interval > 0) {
        sim::spawn(report_loop());
    }
}

NameNode::~NameNode() = default;

void
NameNode::on_shutdown()
{
    if (in_coordinator_) {
        rt_.coordinator.leave(instance_.deployment_id(), this);
        in_coordinator_ = false;
    }
}

sim::Task<void>
NameNode::report_loop()
{
    while (instance_.alive()) {
        co_await sim::delay(rt_.sim, config_.report_interval);
        if (!instance_.alive()) {
            break;
        }
        // Publish block-report/liveness info to the persistent store.
        co_await rt_.network.round_trip(net::LatencyClass::kStore);
        ++block_reports_;
    }
}

sim::Task<void>
NameNode::deliver_invalidation(std::string p, bool subtree)
{
    co_await instance_.compute(sim::usec(30));
    if (subtree) {
        cache_.invalidate_prefix(p);
    } else {
        cache_.invalidate(p);
    }
}

void
NameNode::invalidate_local(const Op& op)
{
    cache_.invalidate(op.path);
    cache_.invalidate(path::parent_view(op.path));
    if (has_dst_path(op.type)) {
        cache_.invalidate(op.dst);
        cache_.invalidate(path::parent_view(op.dst));
    }
}

coord::Coordinator::InvTarget&
NameNode::TargetBuffer::next()
{
    if (size == slots.size()) {
        slots.emplace_back();
    }
    return slots[size++];
}

void
NameNode::TargetBuffer::push(int group, std::string_view p, bool subtree)
{
    coord::Coordinator::InvTarget& t = next();
    t.group = group;
    t.path.assign(p);
    t.subtree = subtree;
}

void
NameNode::TargetBuffer::push_parent(const NamespacePartitioner& partitioner,
                                    std::string_view p)
{
    coord::Coordinator::InvTarget& t = next();
    path::assign_parent(t.path, p);
    t.group = partitioner.deployment_for(t.path);
    t.subtree = false;
}

NameNode::TargetBuffer
NameNode::take_targets()
{
    TargetBuffer out = take_from(free_targets_);
    out.size = 0;
    return out;
}

sim::Task<void>
NameNode::run_coherence(const Op& op, bool invalidate_ancestors)
{
    // The leader invalidates its own cache directly (Algorithm 1 excludes
    // it from the INV fan-out).
    invalidate_local(op);
    TargetBuffer targets = take_targets();
    auto add_path = [&](const std::string& p) {
        targets.push(rt_.partitioner.deployment_for(p), p, false);
        targets.push_parent(rt_.partitioner, p);
    };
    add_path(op.path);
    if (has_dst_path(op.type)) {
        // Rename destination or new hard-link name: both change the
        // dst entry and its parent's mtime on other deployments.
        add_path(op.dst);
    }
    if (invalidate_ancestors) {
        // mkdirs with missing intermediates mutates every ancestor level,
        // not just the immediate parent.
        for (const std::string& a : path::ancestors(op.path)) {
            cache_.invalidate(a);
            targets.push(rt_.partitioner.deployment_for(a), a, false);
        }
    }
    co_await rt_.coordinator.invalidate(targets.view(), this, op.trace);
    free_targets_.push_back(std::move(targets));
}

sim::Task<void>
NameNode::run_subtree_coherence(Op op)
{
    cache_.invalidate_prefix(op.path);
    invalidate_local(op);
    // A large subtree hashes across essentially every deployment, so the
    // prefix INV is issued to all of them (Appendix D), plus point INVs
    // for the parent directories whose mtimes change.
    TargetBuffer targets = take_targets();
    for (int d : rt_.partitioner.all_deployments()) {
        targets.push(d, op.path, true);
    }
    targets.push_parent(rt_.partitioner, op.path);
    if (op.type == OpType::kMv || op.type == OpType::kSubtreeMv) {
        targets.push_parent(rt_.partitioner, op.dst);
    }
    co_await rt_.coordinator.invalidate(targets.view(), this, op.trace);
    free_targets_.push_back(std::move(targets));
}

sim::Task<OpResult>
NameNode::handle_read(const Op& op)
{
    sim::SimTime cpu = config_.read_cpu;
    if (op.type == OpType::kReadFile) {
        cpu += config_.read_block_cpu;
    }
    sim::SimTime cpu_start = rt_.sim.now();
    co_await instance_.compute(cpu);
    // The stamp includes vCPU queueing, not just the service demand.
    sim::SimTime cpu_wait = rt_.sim.now() - cpu_start;
    if (op.type == OpType::kStatFs) {
        // Namespace-wide aggregates are never cached — every statfs
        // reads the per-shard counters through the store.
        OpResult result = co_await rt_.store.read_op(op);
        result.ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
        rt_.store.recycle_chain(result.chain);
        co_return result;
    }
    // Only the deployment that owns a path's partition may cache it; an
    // instance serving out-of-partition traffic (anti-thrashing mode
    // routes to any connected NameNode) reads through to the store so
    // the coherence protocol's deployment targeting stays sound.
    const bool home_partition =
        rt_.partitioner.deployment_for(op.path) == instance_.deployment_id();
    auto cached = home_partition ? cache_.get(op.path)
                                 : std::optional<ns::INode>();
    std::optional<OpResult> hit;
    if (cached.has_value()) {
        hit = ns::apply_cached(rt_.store.tree(), op, *cached);
    }
    if (home_partition) {
        (hit.has_value() ? cache_hits_ : cache_misses_).add();
    }
    if (hit.has_value()) {
        hit->ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
        co_return std::move(*hit);
    }
    // Guarded install: the row locks protecting the store read are gone
    // by the time the reply lands here, so any invalidation delivered in
    // between must beat the install (see MetadataCache read guard).
    const cache::MetadataCache::ReadToken token =
        home_partition ? cache_.begin_read() : 0;
    OpResult result = co_await rt_.store.read_op(op);
    if (home_partition) {
        if (result.status.ok()) {
            cache_own_partition_entries(result.chain, token);
        }
        cache_.end_read(token);
    }
    if (result.status.ok() && home_partition && config_.miss_extra_cpu > 0) {
        sim::SimTime miss_start = rt_.sim.now();
        co_await instance_.compute(config_.miss_extra_cpu);
        cpu_wait += rt_.sim.now() - miss_start;
    }
    result.ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
    // The chain was only needed for cache installation; handing it back
    // keeps it off the RPC reply path and lets the next read reuse it.
    rt_.store.recycle_chain(result.chain);
    co_return result;
}

void
NameNode::cache_own_partition_entries(const std::vector<ns::INode>& chain,
                                      cache::MetadataCache::ReadToken token)
{
    // Cache only the chain entries whose partition this deployment owns.
    // Caching ancestors that hash elsewhere would break the coherence
    // protocol's deterministic INV targeting: a write invalidates an
    // inode only at deployment_for(path), so that must be the sole
    // deployment ever caching it.
    cache_.put_chain_guarded(chain, token, [this](uint64_t parent_hash) {
        return rt_.partitioner.deployment_for_parent(parent_hash) ==
               instance_.deployment_id();
    });
}

sim::Task<OpResult>
NameNode::handle_write(const Op& op)
{
    sim::SimTime cpu_start = rt_.sim.now();
    co_await instance_.compute(config_.write_cpu);
    // `pre` collects everything stamped before the store transaction:
    // NameNode compute (incl. vCPU queueing) plus the parent-resolve
    // round trip's own ledger; it is merged into whichever result this
    // handler ultimately returns.
    sim::LatencyLedger pre;
    pre.add(sim::LatSeg::kNameNodeCpu, rt_.sim.now() - cpu_start);
    // Path resolution: a write must validate/permission-check the parent
    // chain. With the parent cached (the "INode Hint Cache" effect) this
    // is free; otherwise it costs one batched resolve round trip.
    bool parent_missing = false;
    if (config_.resolve_write_parent &&
        !cache_.contains(path::parent_view(op.path))) {
        // A recycled stat Op: its path keeps the capacity of earlier
        // parents, and only the path and principal ever change.
        Op resolve = take_from(free_resolves_);
        path::assign_parent(resolve.path, op.path);
        resolve.user = op.user;
        const cache::MetadataCache::ReadToken token = cache_.begin_read();
        OpResult resolved = co_await rt_.store.read_op(resolve);
        free_resolves_.push_back(std::move(resolve));
        pre.merge(resolved.ledger);
        if (resolved.status.ok() &&
            rt_.partitioner.deployment_for(op.path) ==
                instance_.deployment_id()) {
            cache_own_partition_entries(resolved.chain, token);
        }
        cache_.end_read(token);
        rt_.store.recycle_chain(resolved.chain);
        if (!resolved.status.ok()) {
            // mkdirs materialises missing ancestors itself (`-p`
            // semantics), so an absent parent is not an error for it —
            // the store re-validates authoritatively under locks.
            if (op.type == OpType::kMkdir &&
                resolved.status.code() == Code::kNotFound) {
                parent_missing = true;
            } else {
                resolved.ledger = pre;
                co_return resolved;
            }
        }
    }
    // Algorithm 1: the INV/ACK round runs while the store's exclusive row
    // locks are held, so no other NameNode can re-read-and-cache stale
    // metadata between invalidation and commit.
    // A stateless NameNode (no cache) has nothing to keep coherent.
    auto coherence = [this, &op, parent_missing]() {
        return run_coherence(op, parent_missing);
    };
    const store::Store::LockedHook hook =
        config_.cache_bytes > 0 ? store::Store::LockedHook(coherence)
                                : nullptr;
    OpResult result = co_await rt_.store.write_op(op, hook);
    result.ledger.merge(pre);
    co_return result;
}

sim::Task<OpResult>
NameNode::handle_subtree(const Op& op)
{
    sim::SimTime cpu_start = rt_.sim.now();
    co_await instance_.compute(config_.write_cpu);
    sim::SimTime cpu_wait = rt_.sim.now() - cpu_start;
    int helpers = 1;
    if (config_.offload_subtree) {
        int candidates =
            static_cast<int>(rt_.coordinator.total_members()) - 1;
        helpers = std::clamp(candidates, 1, kMaxOffloadHelpers);
    }
    store::SubtreeExecution exec;
    if (config_.cache_bytes > 0) {
        exec.after_lock = [this, &op]() { return run_subtree_coherence(op); };
    }
    exec.per_row_nn_cost = config_.subtree_per_row_cpu / helpers;
    OpResult result = co_await rt_.store.subtree_op(op, exec);
    result.ledger.add(sim::LatSeg::kNameNodeCpu, cpu_wait);
    co_return result;
}

sim::Task<OpResult>
NameNode::handle(faas::Invocation inv)
{
    // An HTTP-served request lets the NameNode learn the client's TCP
    // server coordinates; it proactively connects back (§3.2).
    if (inv.via_http && inv.client_vm >= 0 && inv.tcp_server >= 0) {
        rt_.tcp_registry.add_connection(inv.client_vm, inv.tcp_server,
                                        &instance_);
    }
    sim::Span nn_span = rt_.sim.tracer().start_span(
        "namenode", op_name(inv.op.type), inv.op.trace);
    inv.op.trace = nn_span.context();
    const Op& op = inv.op;
    // Expired-in-queue shedding at the NameNode: an op whose deadline
    // passed in transit or in the gateway queue is refused before any
    // compute or store work. Checked before the result-cache
    // lookup_or_begin so a shed attempt neither retains a result nor
    // leaves a pending dedup entry a resubmission could join.
    if (op_expired(op, rt_.sim.now())) {
        shed_expired_.add();
        nn_span.annotate("shed", "expired");
        OpResult shed;
        shed.status = Status::deadline_exceeded("expired at namenode");
        co_return shed;
    }
    // An op the store does not serve (λIndexFS' mv, subtree ops and ls)
    // is refused before any work, so a warm cache cannot answer it.
    OpResult result;
    if (!rt_.store.serves(op.type)) {
        result.status = Status::invalid_argument(
            std::string("store does not serve ") + op_name(op.type));
        co_return result;
    }
    // Transparently-resubmitted requests are answered from the
    // deployment's retained-result table instead of being re-performed
    // (§3.2). The table is shared across the deployment's instances, so
    // dedup survives the executing instance's death; a resubmission that
    // races the still-in-flight original joins it here instead of
    // executing the op a second time.
    ResultCache& results = rt_.result_cache(instance_.deployment_id());
    auto retained = co_await results.lookup_or_begin(op.op_id);
    if (retained.has_value()) {
        nn_span.annotate("result_cache", "hit");
        sim::SimTime hit_start = rt_.sim.now();
        co_await instance_.compute(sim::usec(20));
        result = *std::move(retained);
        // The retained ledger describes the *original* execution, whose
        // wall time overlaps the resubmitting client's retry-wait
        // accounting; returning it would double-count. This attempt only
        // spent the dedup-lookup compute.
        result.ledger.clear();
        result.ledger.add(sim::LatSeg::kNameNodeCpu,
                          rt_.sim.now() - hit_start);
        co_return result;
    }
    if (is_read_op(op.type)) {
        result = co_await handle_read(op);
        nn_span.annotate("cache_hit",
                         static_cast<int64_t>(result.cache_hit ? 1 : 0));
    } else if (is_subtree_op(op.type) || requires_subtree_protocol(op)) {
        result = co_await handle_subtree(op);
    } else {
        result = co_await handle_write(op);
    }
    results.complete(op.op_id, result);
    co_return result;
}

bool
NameNode::requires_subtree_protocol(const Op& op) const
{
    // mv of a directory relocates every descendant path, so cached
    // entries under the old prefix must be invalidated subtree-wide.
    if (op.type != OpType::kMv || config_.cache_bytes == 0) {
        return false;
    }
    ns::UserContext root;
    auto target = rt_.store.tree().stat(op.path, root);
    return target.ok() && target->is_dir();
}

}  // namespace lfs::core
