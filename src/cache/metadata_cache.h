/**
 * @file
 * The in-memory metadata cache held by every λFS serverless NameNode (and
 * by HopsFS+Cache NameNodes).
 *
 * Per §3.3 of the paper, cached metadata is stored in a trie keyed by path
 * components: a NameNode caches metadata for *all* INodes along a resolved
 * path, reads that hit serve entirely from the trie, and the subtree
 * coherence protocol invalidates whole prefixes in one operation. Entries
 * are evicted LRU under a byte budget.
 *
 * Hot-path layout (DESIGN.md §14): every trie node keys its children in a
 * flat open-addressing table by the component's 64-bit FNV-1a hash — the
 * same heterogeneous-hash discipline as NamespaceTree, with linear probing
 * over contiguous slots instead of bucket chains. A walk hashes each
 * component's bytes exactly once and, per level, does one probe sequence
 * plus at most one string verify against the interned spelling (component
 * names live in a per-cache ns::NameTable; nodes view its stable
 * storage). get/contains/invalidate walk via path::PathView and construct
 * no temporary std::string — a steady-state get performs zero heap
 * allocations. Lookups never intern, so probing for absent paths cannot
 * grow the table. invalidate()/invalidate_prefix() walk the path once:
 * each component's single hash both goes into the in-flight read-guard
 * log and descends the trie. The log is fixed-size entries over one
 * reused hash arena, and installs match it by 8-byte hash compares;
 * nothing is interned for an invalidation.
 *
 * Trie nodes come from the coroutine-frame pool (sim::detail::FramePool),
 * so a warm miss that re-creates evicted nodes allocates nothing; a
 * destroyed cache returns its nodes to the heap. put_chain_guarded()
 * installs a resolved chain in one descent. The name interner is rebuilt
 * from the live nodes once dead names outnumber live ones, so churn
 * cannot grow it without bound.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/namespace/inode.h"
#include "src/namespace/namespace_tree.h"
#include "src/sim/stats.h"
#include "src/util/function_ref.h"

namespace lfs::cache {

struct CacheConfig {
    /** Byte budget for cached metadata (0 disables caching entirely). */
    size_t capacity_bytes = 256ull * 1024 * 1024;
};

class MetadataCache {
  public:
    explicit MetadataCache(CacheConfig config = {});
    ~MetadataCache();

    MetadataCache(const MetadataCache&) = delete;
    MetadataCache& operator=(const MetadataCache&) = delete;

    /**
     * Cache one inode under @p path, replacing any previous entry. May
     * evict LRU entries to respect the byte budget.
     */
    void put(std::string_view path, const ns::INode& inode);

    /**
     * In-flight read guard. A NameNode reads the store under shared row
     * locks but installs the result into this cache only after the reply
     * has travelled back — after the locks were released. An exclusive
     * writer can slip into that gap: lock, run its INV round (clearing
     * this cache), commit, and ack — and the late install would then
     * resurrect the pre-write value, serving stale metadata forever
     * after. Guarded installs close the gap: take a token before issuing
     * the store read, install through put_chain_guarded() (the
     * NameNode's install) or put_guarded() (its per-entry form, the
     * tests' reference), and any invalidation that arrived in between
     * wins over the install.
     */
    using ReadToken = uint64_t;

    /** Register an in-flight store read; pair with end_read(). */
    ReadToken begin_read();

    /** Unregister an in-flight read, releasing its invalidation log. */
    void end_read(ReadToken token);

    /**
     * put(), unless @p path was invalidated (point or covering prefix)
     * after @p token was taken — then the install is discarded.
     */
    void put_guarded(std::string_view path, const ns::INode& inode,
                     ReadToken token);

    /**
     * Cache a whole resolved chain (root..target). @p chain entries carry
     * component names; the trie is descended directly from them (no path
     * strings are ever assembled).
     */
    void put_chain(const std::vector<ns::INode>& chain);

    /**
     * put_guarded() of each entry of the resolved @p chain (root first)
     * that @p owns accepts, in chain order and with eviction after each
     * install, exactly as a put_guarded() per entry path would — but in
     * one descent that folds each component's probe hash and the running
     * parent-path hash. @p owns receives the entry path's parent hash
     * (path::parent_hash), folded on the way down.
     */
    void put_chain_guarded(const std::vector<ns::INode>& chain,
                           ReadToken token,
                           util::FunctionRef<bool(uint64_t)> owns);

    /** Look up @p path; refreshes LRU position and hit/miss statistics. */
    std::optional<ns::INode> get(std::string_view path);

    /** Presence probe without stats/LRU side effects. */
    bool contains(std::string_view path) const;

    /** Drop the entry at @p path (point invalidation). */
    void invalidate(std::string_view path);

    /**
     * Drop every entry at or under @p prefix — the subtree/prefix
     * invalidation used by the λFS coherence protocol (Appendix D).
     * @return number of entries dropped.
     */
    int64_t invalidate_prefix(std::string_view prefix);

    /** Remove everything. */
    void clear();

    size_t entries() const { return entries_; }
    size_t bytes() const { return bytes_; }
    size_t capacity_bytes() const { return config_.capacity_bytes; }

    /** Component names interned and not yet dropped (diagnostics). */
    size_t interned_names() const { return names_.size(); }

    /** Trie nodes below the root, valued or not (diagnostics). */
    size_t nodes() const { return nodes_; }

    /** Ids of the cached inodes, most recently used first (tests). */
    std::vector<ns::INodeId> lru_ids() const;

    uint64_t hits() const { return hits_.value(); }
    uint64_t misses() const { return misses_.value(); }
    uint64_t evictions() const { return evictions_.value(); }
    uint64_t invalidations() const { return invalidations_.value(); }
    /** Stale installs discarded by the in-flight read guard. */
    uint64_t guard_rejections() const { return guard_rejections_.value(); }

    /** Fraction of gets served from cache (0 when no gets yet). */
    double hit_rate() const;

  private:
    struct Node;

    /**
     * One invalidation observed while >=1 store read was in flight. The
     * path is stored as its component-hash sequence — the slice
     * [begin, begin + len) of inv_hashes_ — so matching an install
     * against the log compares 64-bit FNV-1a hashes, not string
     * prefixes, and logging allocates nothing once the arena has grown
     * to its peak.
     */
    struct InvLogEntry {
        uint64_t seq = 0;
        uint32_t begin = 0;  ///< offset into inv_hashes_
        uint32_t len = 0;    ///< component count (0 = "/")
        bool prefix = false;
    };

    /** Outstanding reads that took the same token. */
    struct ReadRun {
        ReadToken token = 0;
        uint32_t count = 0;
    };

    /**
     * Single-walk invalidation: bumps the sequence and walks @p path
     * once, hashing each component once. The same hash is logged for
     * the guard (only while a read is in flight) and descends the trie.
     * @return the node at @p path, or nullptr.
     */
    Node* log_and_find(std::string_view path, bool prefix);
    bool invalidated_since(std::string_view path, ReadToken token);
    /** First log entry a reader holding @p token has not seen. */
    std::vector<InvLogEntry>::const_iterator unseen_by(ReadToken token) const;
    /** Whether a log entry from @p first on covers the path whose
        component hashes are probe_hashes_[0, depth). */
    bool log_covers(std::vector<InvLogEntry>::const_iterator first,
                    size_t depth) const;
    /** Drop log entries no reader can still observe (seq <= @p oldest). */
    void prune_log(uint64_t oldest);

    Node* find(std::string_view path) const;
    Node* child_or_create(Node* cur, std::string_view comp, uint64_t h);
    /** Re-intern the live nodes' names into a fresh table once dead
        names outnumber live ones; repoints every node's view. */
    void bound_names();
    Node* find_or_create(std::string_view path);
    void set_value(Node* node, const ns::INode& inode);
    void drop_value(Node* node, bool count_as_invalidation);
    void prune(Node* node);
    /** Destroy @p node and park its block in the frame pool. */
    void free_node(Node* node);
    /** Free every node under @p node to the heap (cache teardown). */
    static void release_children(Node* node);
    void evict_until_within_budget();
    int64_t destroy_subtree(Node* node);

    // Intrusive LRU list over nodes holding values.
    void lru_push_front(Node* node);
    void lru_unlink(Node* node);

    CacheConfig config_;
    std::unique_ptr<Node> root_;
    /** Component-name interner: stable spellings for trie nodes. Never
     *  probed on the get path; rebuilt by bound_names(). */
    ns::NameTable names_;
    size_t nodes_ = 0;
    size_t entries_ = 0;
    size_t bytes_ = 0;
    Node* lru_head_ = nullptr;
    Node* lru_tail_ = nullptr;
    sim::Counter hits_;
    sim::Counter misses_;
    sim::Counter evictions_;
    sim::Counter invalidations_;
    sim::Counter guard_rejections_;

    // In-flight read guard state: invalidations are logged only while a
    // read is outstanding; the log is pruned as readers retire. All three
    // vectors are FIFOs with a consumed-prefix head that is compacted in
    // place, so they stop allocating once they reach their peak size.
    uint64_t inv_seq_ = 0;
    /** Active reads as (token, count) runs, strictly ascending by token
        (tokens are issued in nondecreasing order, so begin_read appends
        or bumps the last run). Runs drained out of order stay until they
        reach the head. */
    std::vector<ReadRun> read_runs_;
    size_t runs_head_ = 0;
    size_t active_reads_ = 0;
    std::vector<InvLogEntry> inv_log_;  ///< ascending seq
    size_t log_head_ = 0;
    std::vector<uint64_t> inv_hashes_;  ///< hash arena behind inv_log_
    /** Component hashes of the path an install is checking. */
    std::vector<uint64_t> probe_hashes_;
};

}  // namespace lfs::cache
