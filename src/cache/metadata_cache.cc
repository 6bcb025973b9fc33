#include "src/cache/metadata_cache.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "src/sim/task.h"
#include "src/util/hash.h"
#include "src/util/path.h"

namespace lfs::cache {

/** One trie node; holds a value iff an inode is cached at this path. */
struct MetadataCache::Node {
    /** Trie child index: hash-keyed slots verified against the stored
        spelling (see util::ChildTable's hash-key discipline). */
    using ChildTable = util::ChildTable<Node*>;

    Node* parent = nullptr;
    uint64_t name_hash = 0;  ///< fnv1a(name); key within parent->children
    /** Interned spelling (views NameTable storage — stable addresses). */
    std::string_view name;
    ChildTable children;
    std::optional<ns::INode> value;
    size_t value_bytes = 0;
    // Intrusive LRU links (valid only while value is set).
    Node* lru_prev = nullptr;
    Node* lru_next = nullptr;
};

namespace {

using sim::detail::FramePool;

/** Interned names beyond twice the live nodes that bound_names()
    tolerates, so a nearly empty cache does not rebuild on every put. */
constexpr size_t kNameSlack = 64;

}  // namespace

MetadataCache::MetadataCache(CacheConfig config)
    : config_(config), root_(std::make_unique<Node>())
{
}

MetadataCache::~MetadataCache()
{
    release_children(root_.get());
}

void
MetadataCache::release_children(Node* node)
{
    // A whole trie goes back to the heap rather than the pool, so the
    // next cache is laid out in its own insertion order.
    for (const Node::ChildTable::Slot& s : node->children.slots()) {
        if (s.value != nullptr) {
            release_children(s.value);
            s.value->~Node();
            FramePool::release(s.value, sizeof(Node));
        }
    }
}

MetadataCache::Node*
MetadataCache::find(std::string_view p) const
{
    Node* cur = root_.get();
    for (std::string_view comp : path::PathView(p)) {
        const uint64_t h = fnv1a(comp);
        Node* next = cur->children.find(
            h, [comp](const Node* n) { return n->name == comp; });
        if (next == nullptr) {
            return nullptr;
        }
        cur = next;
    }
    return cur;
}

MetadataCache::Node*
MetadataCache::child_or_create(Node* cur, std::string_view comp, uint64_t h)
{
    if (Node* hit = cur->children.find(
            h, [comp](const Node* n) { return n->name == comp; })) {
        return hit;
    }
    bound_names();
    // Intern the spelling so the node's name view stays valid until the
    // next rebuild, which repoints it (NameTable addresses are stable).
    uint32_t id = names_.intern(comp, h);
    // Trie nodes come from the coroutine-frame pool: re-creating an
    // evicted path reuses a parked block instead of the heap.
    Node* node = new (FramePool::allocate(sizeof(Node))) Node;
    node->parent = cur;
    node->name_hash = h;
    node->name = names_.name(id);
    cur->children.insert(h, node);
    ++nodes_;
    return node;
}

void
MetadataCache::bound_names()
{
    // Every live node holds at most one live name, so this fires only
    // once dead names outnumber live ones. The rebuild costs O(nodes +
    // names) and leaves at most nodes_ names, so the names interned since
    // the last one pay for it: amortized O(1) per node created.
    if (names_.size() <= 2 * nodes_ + kNameSlack) {
        return;
    }
    ns::NameTable fresh;
    auto repoint = [&fresh](auto& self, Node* node) -> void {
        for (const Node::ChildTable::Slot& s : node->children.slots()) {
            if (Node* child = s.value) {
                child->name =
                    fresh.name(fresh.intern(child->name, child->name_hash));
                self(self, child);
            }
        }
    };
    repoint(repoint, root_.get());
    names_ = std::move(fresh);
}

MetadataCache::Node*
MetadataCache::find_or_create(std::string_view p)
{
    Node* cur = root_.get();
    for (std::string_view comp : path::PathView(p)) {
        cur = child_or_create(cur, comp, fnv1a(comp));
    }
    return cur;
}

void
MetadataCache::free_node(Node* node)
{
    node->~Node();
    FramePool::deallocate(node, sizeof(Node));
    --nodes_;
}

void
MetadataCache::lru_push_front(Node* node)
{
    node->lru_prev = nullptr;
    node->lru_next = lru_head_;
    if (lru_head_) {
        lru_head_->lru_prev = node;
    }
    lru_head_ = node;
    if (!lru_tail_) {
        lru_tail_ = node;
    }
}

void
MetadataCache::lru_unlink(Node* node)
{
    if (node->lru_prev) {
        node->lru_prev->lru_next = node->lru_next;
    } else if (lru_head_ == node) {
        lru_head_ = node->lru_next;
    }
    if (node->lru_next) {
        node->lru_next->lru_prev = node->lru_prev;
    } else if (lru_tail_ == node) {
        lru_tail_ = node->lru_prev;
    }
    node->lru_prev = nullptr;
    node->lru_next = nullptr;
}

void
MetadataCache::set_value(Node* node, const ns::INode& inode)
{
    if (node->value.has_value()) {
        bytes_ -= node->value_bytes;
        lru_unlink(node);
    } else {
        ++entries_;
    }
    node->value = inode;
    node->value_bytes = inode.metadata_bytes();
    bytes_ += node->value_bytes;
    lru_push_front(node);
}

void
MetadataCache::drop_value(Node* node, bool count_as_invalidation)
{
    if (!node->value.has_value()) {
        return;
    }
    bytes_ -= node->value_bytes;
    --entries_;
    lru_unlink(node);
    node->value.reset();
    node->value_bytes = 0;
    if (count_as_invalidation) {
        invalidations_.add();
    }
}

void
MetadataCache::prune(Node* node)
{
    // Remove now-empty nodes bottom-up (never the root).
    while (node != root_.get() && !node->value.has_value() &&
           node->children.empty()) {
        Node* parent = node->parent;
        parent->children.erase(node->name_hash, node);
        free_node(node);
        node = parent;
    }
}

void
MetadataCache::evict_until_within_budget()
{
    while (bytes_ > config_.capacity_bytes && lru_tail_) {
        Node* victim = lru_tail_;
        drop_value(victim, /*count_as_invalidation=*/false);
        evictions_.add();
        prune(victim);
    }
}

void
MetadataCache::put(std::string_view p, const ns::INode& inode)
{
    if (config_.capacity_bytes == 0) {
        return;
    }
    // Multi-link inodes are never cached: the coherence protocols key
    // invalidations by path, and a write through one alias could not
    // find entries cached under another. link() itself invalidates the
    // existing entries, and this guard keeps aliases out afterwards.
    if (inode.nlink > 1) {
        return;
    }
    set_value(find_or_create(p), inode);
    evict_until_within_budget();
}

void
MetadataCache::put_chain(const std::vector<ns::INode>& chain)
{
    if (config_.capacity_bytes == 0) {
        return;
    }
    // Chains arrive normalized root-first: descend the trie one component
    // per chain entry directly — no path strings are ever assembled.
    Node* cur = root_.get();
    for (const ns::INode& inode : chain) {
        if (inode.id != ns::kRootId) {
            cur = child_or_create(cur, inode.name, fnv1a(inode.name));
        }
        if (inode.nlink > 1) {
            continue;  // see put(): aliases defeat path-keyed INV
        }
        set_value(cur, inode);
    }
    evict_until_within_budget();
}

void
MetadataCache::put_chain_guarded(const std::vector<ns::INode>& chain,
                                 ReadToken token,
                                 util::FunctionRef<bool(uint64_t)> owns)
{
    assert(chain.empty() || chain.front().id == ns::kRootId);
    // Installs never log, so the unseen invalidations stay fixed for the
    // whole chain.
    const auto unseen = unseen_by(token);
    // chain[i] sits at depth i. `cur` is the node at depth `at`, created
    // lazily: as with put_guarded() per entry, only an install creates
    // nodes.
    Node* cur = root_.get();
    size_t at = 0;
    // path::parent_hash of chain[i]'s path and fnv1a of the path itself,
    // folded "/" + name per component ("/" is the root's own parent).
    constexpr uint64_t kRootParent = fnv1a("/");
    uint64_t parent = kRootParent;
    uint64_t dir = kFnv1aBasis;
    probe_hashes_.clear();
    for (size_t i = 0; i < chain.size(); ++i) {
        const ns::INode& inode = chain[i];
        if (i > 0) {
            parent = i == 1 ? kRootParent : dir;
            dir = fnv1a_mix(fnv1a_mix(dir, "/"), inode.name);
            probe_hashes_.push_back(fnv1a(inode.name));
        }
        if (!owns(parent)) {
            continue;
        }
        if (log_covers(unseen, i)) {
            guard_rejections_.add();
            continue;
        }
        if (config_.capacity_bytes == 0 || inode.nlink > 1) {
            continue;  // see put()
        }
        for (; at < i; ++at) {
            cur = child_or_create(cur, chain[at + 1].name,
                                  probe_hashes_[at]);
        }
        set_value(cur, inode);
        evict_until_within_budget();
        if (lru_head_ != cur) {
            // The install evicted itself (an entry over the whole budget)
            // and pruning may have freed its path: descend afresh.
            cur = root_.get();
            at = 0;
        }
    }
}

std::optional<ns::INode>
MetadataCache::get(std::string_view p)
{
    Node* node = find(p);
    if (!node || !node->value.has_value()) {
        misses_.add();
        return std::nullopt;
    }
    hits_.add();
    lru_unlink(node);
    lru_push_front(node);
    return node->value;
}

bool
MetadataCache::contains(std::string_view p) const
{
    Node* node = find(p);
    return node && node->value.has_value();
}

void
MetadataCache::invalidate(std::string_view p)
{
    Node* node = log_and_find(p, /*prefix=*/false);
    if (!node) {
        return;
    }
    drop_value(node, /*count_as_invalidation=*/true);
    prune(node);
}

int64_t
MetadataCache::destroy_subtree(Node* node)
{
    // Single fused pass: drop the value, recurse, free — instead of a
    // drop traversal followed by a destructor traversal.
    int64_t dropped = 0;
    if (node->value.has_value()) {
        drop_value(node, /*count_as_invalidation=*/true);
        ++dropped;
    }
    for (const Node::ChildTable::Slot& s : node->children.slots()) {
        if (s.value != nullptr) {
            dropped += destroy_subtree(s.value);
        }
    }
    node->children.clear();  // children already freed above
    free_node(node);
    return dropped;
}

int64_t
MetadataCache::invalidate_prefix(std::string_view prefix)
{
    Node* node = log_and_find(prefix, /*prefix=*/true);
    if (!node) {
        return 0;
    }
    int64_t dropped = 0;
    if (node != root_.get()) {
        Node* parent = node->parent;
        parent->children.erase(node->name_hash, node);
        dropped = destroy_subtree(node);
        prune(parent);
    } else {
        if (node->value.has_value()) {
            drop_value(node, /*count_as_invalidation=*/true);
            ++dropped;
        }
        for (const Node::ChildTable::Slot& s : node->children.slots()) {
            if (s.value != nullptr) {
                dropped += destroy_subtree(s.value);
            }
        }
        node->children.clear();
    }
    return dropped;
}

void
MetadataCache::clear()
{
    invalidate_prefix("/");
}

namespace {

/**
 * Drop the consumed prefix [0, @p head) of a FIFO vector once it is at
 * least half the vector. erase() shifts in place, so the vector keeps
 * its capacity, and each element moves O(1) times amortized.
 */
template <class T>
void
compact_fifo(std::vector<T>& v, size_t& head)
{
    if (head == v.size()) {
        v.clear();
        head = 0;
    } else if (head * 2 >= v.size()) {
        v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
    }
}

}  // namespace

MetadataCache::ReadToken
MetadataCache::begin_read()
{
    if (runs_head_ < read_runs_.size() &&
        read_runs_.back().token == inv_seq_) {
        ++read_runs_.back().count;
    } else {
        read_runs_.push_back(ReadRun{inv_seq_, 1});
    }
    ++active_reads_;
    return inv_seq_;
}

void
MetadataCache::end_read(ReadToken token)
{
    auto it = std::lower_bound(
        read_runs_.begin() + static_cast<std::ptrdiff_t>(runs_head_),
        read_runs_.end(), token,
        [](const ReadRun& run, ReadToken t) { return run.token < t; });
    if (it != read_runs_.end() && it->token == token && it->count > 0) {
        --it->count;
        --active_reads_;
    }
    if (active_reads_ == 0) {
        read_runs_.clear();
        runs_head_ = 0;
        inv_log_.clear();
        inv_hashes_.clear();
        log_head_ = 0;
        return;
    }
    while (read_runs_[runs_head_].count == 0) {
        ++runs_head_;
    }
    compact_fifo(read_runs_, runs_head_);
    // Entries at or before the oldest active snapshot can no longer
    // affect any reader.
    prune_log(read_runs_[runs_head_].token);
}

void
MetadataCache::prune_log(uint64_t oldest)
{
    while (log_head_ < inv_log_.size() && inv_log_[log_head_].seq <= oldest) {
        ++log_head_;
    }
    if (log_head_ == inv_log_.size()) {
        inv_hashes_.clear();
    } else if (log_head_ * 2 >= inv_log_.size()) {
        // Rebase the surviving entries onto the compacted arena.
        const uint32_t base = inv_log_[log_head_].begin;
        inv_hashes_.erase(inv_hashes_.begin(), inv_hashes_.begin() + base);
        for (size_t i = log_head_; i < inv_log_.size(); ++i) {
            inv_log_[i].begin -= base;
        }
    }
    compact_fifo(inv_log_, log_head_);
}

void
MetadataCache::put_guarded(std::string_view p, const ns::INode& inode,
                           ReadToken token)
{
    if (invalidated_since(p, token)) {
        guard_rejections_.add();
        return;
    }
    put(p, inode);
}

MetadataCache::Node*
MetadataCache::log_and_find(std::string_view p, bool prefix)
{
    ++inv_seq_;
    // Log even when nothing is cached at p: an in-flight read may be
    // about to install exactly this path, and the invalidation must win.
    const bool log = active_reads_ > 0;
    const size_t begin = inv_hashes_.size();
    Node* cur = root_.get();
    for (std::string_view comp : path::PathView(p)) {
        if (!log && cur == nullptr) {
            break;
        }
        const uint64_t h = fnv1a(comp);
        if (log) {
            // Logged by hash: the invalidated path may never be cached,
            // and interning its names would keep them resident for the
            // cache's lifetime.
            inv_hashes_.push_back(h);
        }
        if (cur != nullptr) {
            cur = cur->children.find(
                h, [comp](const Node* n) { return n->name == comp; });
        }
    }
    if (log) {
        inv_log_.push_back(
            InvLogEntry{inv_seq_, static_cast<uint32_t>(begin),
                        static_cast<uint32_t>(inv_hashes_.size() - begin),
                        prefix});
    }
    return cur;
}

std::vector<MetadataCache::InvLogEntry>::const_iterator
MetadataCache::unseen_by(ReadToken token) const
{
    // The log is ascending by seq: skip what the reader already saw.
    return std::upper_bound(
        inv_log_.begin() + static_cast<std::ptrdiff_t>(log_head_),
        inv_log_.end(), token,
        [](ReadToken t, const InvLogEntry& e) { return t < e.seq; });
}

bool
MetadataCache::invalidated_since(std::string_view p, ReadToken token)
{
    const auto first = unseen_by(token);
    if (first == inv_log_.end()) {
        return false;
    }
    probe_hashes_.clear();
    for (std::string_view comp : path::PathView(p)) {
        probe_hashes_.push_back(fnv1a(comp));
    }
    return log_covers(first, probe_hashes_.size());
}

bool
MetadataCache::log_covers(std::vector<InvLogEntry>::const_iterator first,
                          size_t depth) const
{
    // Equal paths hash equally, so no logged invalidation is missed; a
    // 64-bit collision can only discard an install, never keep a stale one.
    for (auto it = first; it != inv_log_.end(); ++it) {
        // An entry matches the probed path itself (point or prefix) or,
        // when it is a prefix entry, any path strictly under it.
        if (it->len > depth || (it->len < depth && !it->prefix)) {
            continue;
        }
        const auto hashes = inv_hashes_.begin() + it->begin;
        if (std::equal(hashes, hashes + it->len, probe_hashes_.begin())) {
            return true;
        }
    }
    return false;
}

std::vector<ns::INodeId>
MetadataCache::lru_ids() const
{
    std::vector<ns::INodeId> out;
    for (const Node* n = lru_head_; n != nullptr; n = n->lru_next) {
        out.push_back(n->value->id);
    }
    return out;
}

double
MetadataCache::hit_rate() const
{
    uint64_t total = hits_.value() + misses_.value();
    return total ? static_cast<double>(hits_.value()) /
                       static_cast<double>(total)
                 : 0.0;
}

}  // namespace lfs::cache
