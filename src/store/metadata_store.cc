#include "src/store/metadata_store.h"

#include <algorithm>
#include <cassert>

#include "src/namespace/apply.h"
#include "src/util/hash.h"
#include "src/util/path.h"

namespace lfs::store {

namespace {

/** Delay between retries when a transaction meets a subtree lock. */
constexpr sim::SimTime kSubtreeRetryDelay = sim::msec(20);

}  // namespace

MetadataStore::MetadataStore(sim::Simulation& sim, net::Network& network,
                             sim::Rng rng, StoreConfig config,
                             util::OverloadControlConfig overload)
    : sim_(sim), network_(network), config_(config), locks_(sim)
{
    shards_.reserve(static_cast<size_t>(config_.num_data_nodes));
    for (int i = 0; i < config_.num_data_nodes; ++i) {
        shards_.push_back(std::make_unique<DataNode>(
            sim, rng.fork(), config_.data_node, overload, /*shard_id=*/i));
        DataNode* shard = shards_.back().get();
        sim_.metrics().register_callback_gauge(
            "store.queue_depth", {{"shard", std::to_string(i)}},
            [shard] { return static_cast<double>(shard->queue_depth()); },
            this);
    }
    sim_.metrics().register_callback_gauge(
        "store.queue_depth_total", {},
        [this] { return static_cast<double>(queue_depth()); }, this);
    sim_.metrics().register_callback_gauge(
        "store.reads", {},
        [this] { return static_cast<double>(total_reads()); }, this);
    sim_.metrics().register_callback_gauge(
        "store.writes", {},
        [this] { return static_cast<double>(total_writes()); }, this);
    // Two-tier namespace residency gauges (DESIGN.md §15). Sampled on
    // metric dumps only; residency_stats() is O(directories).
    sim_.metrics().register_callback_gauge(
        "ns.resident_inodes", {},
        [this] {
            return static_cast<double>(
                tree_.residency_stats().resident_inodes);
        },
        this);
    sim_.metrics().register_callback_gauge(
        "ns.cold_inodes", {},
        [this] {
            return static_cast<double>(tree_.residency_stats().cold_inodes);
        },
        this);
    sim_.metrics().register_callback_gauge(
        "ns.resident_bytes", {},
        [this] {
            return static_cast<double>(
                tree_.residency_stats().resident_bytes);
        },
        this);
    sim_.metrics().register_callback_gauge(
        "ns.cold_bytes", {},
        [this] {
            return static_cast<double>(tree_.residency_stats().cold_bytes);
        },
        this);
    sim_.metrics().register_callback_gauge(
        "ns.bytes_per_inode", {},
        [this] { return tree_.residency_stats().bytes_per_inode; }, this);
    sim_.metrics().register_callback_gauge(
        "ns.pagein", {},
        [this] { return static_cast<double>(tree_.pageins()); }, this);
    sim_.metrics().register_callback_gauge(
        "ns.pageout", {},
        [this] { return static_cast<double>(tree_.pageouts()); }, this);
    rejected_expired_ = &sim_.metrics().counter("overload.store_rejected",
                                                {{"reason", "expired"}});
    rejected_breaker_ = &sim_.metrics().counter("overload.store_rejected",
                                                {{"reason", "breaker_open"}});
    if (overload.enabled) {
        breakers_.reserve(shards_.size());
        for (int i = 0; i < config_.num_data_nodes; ++i) {
            breakers_.push_back(
                std::make_unique<util::CircuitBreaker>(util::BreakerConfig{}));
            util::CircuitBreaker* breaker = breakers_.back().get();
            sim_.metrics().register_callback_gauge(
                "overload.breaker_state", {{"shard", std::to_string(i)}},
                [breaker] {
                    return static_cast<double>(
                        static_cast<int>(breaker->state()));
                },
                this);
        }
    }
}

MetadataStore::~MetadataStore()
{
    sim_.metrics().remove_owner(this);
}

size_t
MetadataStore::shard_index(const std::string& parent_path) const
{
    return fnv1a(parent_path) % shards_.size();
}

size_t
MetadataStore::shard_index_of_parent(std::string_view p) const
{
    return path::parent_hash(p) % shards_.size();
}

DataNode&
MetadataStore::shard_for(const std::string& parent_path)
{
    return *shards_[shard_index(parent_path)];
}

Status
MetadataStore::admit(size_t idx, const Op& op, sim::Span& txn_span)
{
    if (!breakers_.empty() && !breakers_[idx]->allow(sim_.now())) {
        rejected_breaker_->add();
        txn_span.annotate("shed", "breaker_open");
        return Status::unavailable("store breaker open: shard " +
                                   std::to_string(idx));
    }
    if (op_expired(op, sim_.now())) {
        rejected_expired_->add();
        txn_span.annotate("shed", "expired");
        return Status::deadline_exceeded("expired at store entry");
    }
    return Status::make_ok();
}

void
MetadataStore::breaker_record(size_t idx, const Status& st)
{
    if (breakers_.empty()) {
        return;
    }
    if (st.ok()) {
        breakers_[idx]->record_success(sim_.now());
    } else {
        breakers_[idx]->record_failure(sim_.now());
    }
}

void
MetadataStore::LockSet::normalize()
{
    std::sort(ids_.data(), ids_.data() + size_);
    size_ = static_cast<size_t>(
        std::unique(ids_.data(), ids_.data() + size_) - ids_.data());
}

MetadataStore::LockSet
MetadataStore::write_lock_set(const Op& op) const
{
    // Id-centric resolve: lock-set computation walks inode ids and never
    // materializes INode views (the chains were thrown away here before).
    LockSet ids;
    ns::IdChain chain;
    auto add_path = [&](std::string_view p) {
        ns::UserContext root;  // lock-set computation ignores permissions
        if (tree_.resolve_ids(p, root, ns::Follow::kFinal, &chain).ok()) {
            ids.add(chain.back());
            return true;
        }
        return false;
    };
    // A create's target does not exist yet: probe the parent's directory
    // before resolving the target, whose failure would format an error.
    if (add_path(path::parent_view(op.path)) &&
        tree_.lookup_child(chain.back(), path::basename_view(op.path)) !=
            ns::kInvalidId) {
        add_path(op.path);
    }
    if (has_dst_path(op.type)) {
        add_path(path::parent_view(op.dst));
    }
    ids.normalize();
    return ids;
}

MetadataStore::LockSet
MetadataStore::read_lock_set(std::string_view p) const
{
    LockSet ids;
    ns::UserContext root;
    ns::IdChain chain;
    if (tree_.resolve_ids(p, root, ns::Follow::kFinal, &chain).ok()) {
        ids.add(chain.back());
        if (chain.size() > 1) {
            ids.add(chain[chain.size() - 2]);
        }
    } else if (tree_
                   .resolve_ids(path::parent_view(p), root,
                                ns::Follow::kFinal, &chain)
                   .ok()) {
        ids.add(chain.back());
    }
    ids.normalize();
    return ids;
}

void
MetadataStore::unlock_exclusive(const LockSet& ids)
{
    // Release in reverse acquisition order.
    for (const ns::INodeId* id = ids.end(); id != ids.begin();) {
        locks_.unlock_exclusive(*--id);
    }
}

sim::Task<void>
MetadataStore::charge_ns_faults(uint64_t faults_before,
                                sim::LatencyLedger& ledger)
{
    uint64_t faults = tree_.pageins() - faults_before;
    if (faults == 0 || config_.fault_page_cost <= 0) {
        co_return;
    }
    sim::SimTime cost =
        config_.fault_page_cost * static_cast<sim::SimTime>(faults);
    co_await sim::delay(sim_, cost);
    ledger.add(sim::LatSeg::kNsFault, cost);
}

sim::Task<OpResult>
MetadataStore::read_op(const Op& op)
{
    sim::Span txn_span =
        sim_.tracer().start_span("store", "read_txn", op.trace);
    sim::LatencyLedger led;
    co_await network_.transfer(net::LatencyClass::kStore, led);
    OpResult result;
    size_t shard_idx = shard_index_of_parent(op.path);
    result.status = admit(shard_idx, op, txn_span);
    if (result.status.ok()) {
        uint64_t faults_before = tree_.pageins();
        while (true) {
            // One lock_wait span per retry round; move-assign ends the
            // previous round's span.
            sim::Span lock_span = sim_.tracer().start_span(
                "store", "lock_wait", txn_span.context());
            sim::SimTime lock_start = sim_.now();
            // While a subtree operation is in flight over this path, reads
            // block behind it (the subtree flag acts as an intention lock).
            while (locks_.overlaps_active_subtree(op.path)) {
                co_await sim::delay(sim_, kSubtreeRetryDelay);
            }
            // Shared row locks on target + parent serialize the read
            // against concurrent writers, so a reader can never cache a
            // value that a lock-holding writer is about to overwrite.
            const LockSet lock_ids = read_lock_set(op.path);
            for (ns::INodeId id : lock_ids) {
                co_await locks_.lock_shared(id);
            }
            lock_span.end();
            led.add(sim::LatSeg::kStoreLockWait, sim_.now() - lock_start);
            Status st;
            if (op.type == OpType::kStatFs) {
                // statfs collects one aggregate row from every shard — it
                // pays a per-shard read, not an O(inodes) scan.
                st = Status::make_ok();
                for (auto& shard : shards_) {
                    st = co_await shard->execute_read(led, 1, op.deadline);
                    if (!st.ok()) {
                        break;
                    }
                }
            } else {
                DataNode& shard = *shards_[shard_idx];
                st = co_await shard.execute_read(
                    led, path::depth(op.path) + 1, op.deadline);
            }
            breaker_record(shard_idx, st);
            if (!st.ok()) {
                for (ns::INodeId id : lock_ids) {
                    locks_.unlock_shared(id);
                }
                txn_span.annotate("shed", code_name(st.code()));
                result.status = st;
                break;
            }
            result = ns::apply(tree_, op, sim_.now(), take_chain());
            for (ns::INodeId id : lock_ids) {
                locks_.unlock_shared(id);
            }
            // A subtree operation may have flagged this path while the
            // read was in flight (its quiesce phase drains readers like
            // us). The result would be cached *after* the subtree INV
            // round cleared the caches — stale forever — so retry behind
            // the flag instead.
            if (!locks_.overlaps_active_subtree(op.path)) {
                break;
            }
        }
        co_await charge_ns_faults(faults_before, led);
    }
    co_await network_.transfer(net::LatencyClass::kStore, led);
    result.ledger = led;
    co_return result;
}

sim::Task<OpResult>
MetadataStore::write_op(const Op& op, LockedHook after_lock)
{
    sim::Span txn_span =
        sim_.tracer().start_span("store", "write_txn", op.trace);
    sim::LatencyLedger led;
    co_await network_.transfer(net::LatencyClass::kStore, led);
    OpResult result;
    size_t shard_idx = shard_index_of_parent(op.path);
    // Admission runs before waiting on subtree flags, acquiring row locks,
    // or running the coherence round — doomed work sheds here.
    result.status = admit(shard_idx, op, txn_span);
    if (result.status.ok()) {
        uint64_t faults_before = tree_.pageins();
        sim::Span lock_span = sim_.tracer().start_span("store", "lock_wait",
                                                       txn_span.context());
        sim::SimTime lock_start = sim_.now();
        while (locks_.overlaps_active_subtree(op.path) ||
               (has_dst_path(op.type) &&
                locks_.overlaps_active_subtree(op.dst))) {
            co_await sim::delay(sim_, kSubtreeRetryDelay);
        }
        const LockSet lock_ids = write_lock_set(op);
        for (ns::INodeId id : lock_ids) {
            co_await locks_.lock_exclusive(id);  // ascending: the lock order
        }
        lock_span.end();
        led.add(sim::LatSeg::kStoreLockWait, sim_.now() - lock_start);
        if (after_lock) {
            // The coherence INV/ACK round is attributed here — around the
            // hook await, never inside the coordinator — so it is stamped
            // exactly once per write.
            sim::SimTime coh_start = sim_.now();
            co_await after_lock();
            led.add(sim::LatSeg::kCoherence, sim_.now() - coh_start);
        }
        DataNode& shard = *shards_[shard_idx];
        Status st = co_await shard.execute_write(
            led, static_cast<int>(lock_ids.size()), op.deadline);
        breaker_record(shard_idx, st);
        if (st.ok()) {
            result = ns::apply(tree_, op, sim_.now());
            // Faults are charged while the row locks are held: a
            // sub-resident namespace pays its page-ins inside the
            // transaction window.
            co_await charge_ns_faults(faults_before, led);
        } else {
            txn_span.annotate("shed", code_name(st.code()));
            result.status = st;
        }
        unlock_exclusive(lock_ids);
    }
    co_await network_.transfer(net::LatencyClass::kStore, led);
    result.ledger = led;
    co_return result;
}

sim::Task<Status>
MetadataStore::quiesce_rows(const std::string& shard_key, int64_t rows,
                            sim::LatencyLedger& ledger)
{
    DataNode& shard = shard_for(shard_key);
    int batch = config_.subtree_batch_size;
    for (int64_t done = 0; done < rows; done += batch) {
        int64_t n = std::min<int64_t>(batch, rows - done);
        Status st = co_await shard.execute_read(ledger);
        if (!st.ok()) {
            co_return st;
        }
        co_await sim::delay(sim_, config_.subtree_row_read_cost * n);
        ledger.add(sim::LatSeg::kStoreService,
                   config_.subtree_row_read_cost * n);
    }
    co_return Status::make_ok();
}

sim::Task<Status>
MetadataStore::commit_subtree_batch(const std::string& shard_key, int64_t rows,
                                    sim::LatencyLedger& ledger)
{
    DataNode& shard = shard_for(shard_key);
    Status st = co_await shard.execute_write(ledger);
    if (!st.ok()) {
        co_return st;
    }
    co_await sim::delay(sim_, config_.subtree_row_write_cost * rows);
    ledger.add(sim::LatSeg::kStoreService,
               config_.subtree_row_write_cost * rows);
    co_return Status::make_ok();
}

sim::Task<OpResult>
MetadataStore::subtree_op(Op op, SubtreeExecution exec)
{
    sim::Span txn_span =
        sim_.tracer().start_span("store", "subtree_txn", op.trace);
    sim::LatencyLedger led;
    co_await network_.transfer(net::LatencyClass::kStore, led);

    // Phase 1: set the subtree-lock flag; retry on overlap.
    sim::Span lock_span =
        sim_.tracer().start_span("store", "lock_wait", txn_span.context());
    sim::SimTime lock_start = sim_.now();
    while (true) {
        Status st = locks_.try_acquire_subtree(op.path);
        if (st.ok()) {
            break;
        }
        co_await sim::delay(sim_, kSubtreeRetryDelay);
    }
    lock_span.end();
    led.add(sim::LatSeg::kStoreLockWait, sim_.now() - lock_start);

    OpResult result;
    uint64_t faults_before = tree_.pageins();
    // Sized as the caller: a path it may not traverse fails here with
    // the same status the op itself would return.
    auto size = tree_.subtree_size(op.path, op.user);
    Status st = size.status();
    int64_t rows = 0;
    if (st.ok()) {
        rows = size.take();
        // λFS: prefix-invalidation round, while the subtree flag blocks
        // conflicting reads/writes.
        if (exec.after_lock) {
            sim::SimTime coh_start = sim_.now();
            co_await exec.after_lock();
            led.add(sim::LatSeg::kCoherence, sim_.now() - coh_start);
        }
        // Phase 2: quiesce the subtree (ordered lock walk). Subtree ops
        // carry no deadline (clients never stamp them), but a bounded
        // shard queue can still reject a batch; abort the protocol and
        // release the flag.
        sim::Span quiesce_span = sim_.tracer().start_span(
            "store", "quiesce", txn_span.context());
        quiesce_span.annotate("rows", rows);
        st = co_await quiesce_rows(op.path, rows, led);
    }
    if (st.ok()) {
        // Phase 3: batched sub-transactions, each preceded by the calling
        // NameNode cluster's own batch processing cost.
        sim::Span commit_span = sim_.tracer().start_span(
            "store", "commit_batches", txn_span.context());
        commit_span.annotate("rows", rows);
        int batch = config_.subtree_batch_size;
        for (int64_t done = 0; done < rows && st.ok(); done += batch) {
            int64_t n = std::min<int64_t>(batch, rows - done);
            if (exec.per_row_nn_cost > 0) {
                co_await sim::delay(sim_, exec.per_row_nn_cost * n);
                led.add(sim::LatSeg::kNameNodeCpu, exec.per_row_nn_cost * n);
            }
            st = co_await commit_subtree_batch(op.path, n, led);
        }
    }
    if (st.ok()) {
        result = ns::apply(tree_, op, sim_.now());
        // The protocol reports the rows it locked and walked.
        result.inodes_touched = rows;
        co_await charge_ns_faults(faults_before, led);
    } else {
        result.status = st;
    }
    locks_.release_subtree(op.path);
    co_await network_.transfer(net::LatencyClass::kStore, led);
    result.ledger = led;
    co_return result;
}

uint64_t
MetadataStore::total_reads() const
{
    uint64_t total = 0;
    for (const auto& shard : shards_) {
        total += shard->reads_served();
    }
    return total;
}

uint64_t
MetadataStore::total_writes() const
{
    uint64_t total = 0;
    for (const auto& shard : shards_) {
        total += shard->writes_served();
    }
    return total;
}

size_t
MetadataStore::queue_depth() const
{
    size_t total = 0;
    for (const auto& shard : shards_) {
        total += shard->queue_depth();
    }
    return total;
}

uint64_t
MetadataStore::shed_total() const
{
    uint64_t total = 0;
    for (const auto& shard : shards_) {
        total += shard->shed_total();
    }
    if (rejected_expired_ != nullptr) {
        total += rejected_expired_->value();
    }
    if (rejected_breaker_ != nullptr) {
        total += rejected_breaker_->value();
    }
    return total;
}

uint64_t
MetadataStore::breaker_opens() const
{
    uint64_t total = 0;
    for (const auto& breaker : breakers_) {
        total += breaker->opens();
    }
    return total;
}

uint64_t
MetadataStore::breaker_fast_failures() const
{
    uint64_t total = 0;
    for (const auto& breaker : breakers_) {
        total += breaker->fast_failures();
    }
    return total;
}

}  // namespace lfs::store
