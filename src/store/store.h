/**
 * @file
 * The persistent metadata store λFS's NameNodes transact against (§4):
 * MetadataStore models NDB for λFS and HopsFS, indexfs::LsmStore models
 * IndexFS' LevelDBs for λIndexFS (§5.7). Both apply every op to their
 * NamespaceTree through ns::apply; they differ in cost and op coverage.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/namespace/namespace_tree.h"
#include "src/namespace/op.h"
#include "src/sim/task.h"
#include "src/util/function_ref.h"

namespace lfs::store {

/** NameNode-side execution parameters for a subtree operation. */
struct SubtreeExecution {
    /** Awaited after the subtree flag is acquired (prefix INV round).
        Owning: callers fill the struct before passing it along. */
    std::function<sim::Task<void>()> after_lock;
    /**
     * Per-row NameNode processing cost added to each batch commit
     * (callers divide by their offload parallelism, Appendix D).
     */
    sim::SimTime per_row_nn_cost = 0;
};

class Store {
  public:
    /**
     * Coroutine-producing hook a write awaits before it commits: λFS's
     * INV/ACK round. A store with row locks awaits it while they are
     * held, so no other NameNode can read-and-cache between invalidation
     * and commit (§3.5). Non-owning: it must outlive the transaction.
     */
    using LockedHook = util::FunctionRef<sim::Task<void>()>;

    Store() = default;
    Store(const Store&) = delete;
    Store& operator=(const Store&) = delete;
    virtual ~Store() = default;

    /** Untimed access to the authoritative namespace (setup, verification). */
    virtual ns::NamespaceTree& tree() = 0;
    virtual const ns::NamespaceTree& tree() const = 0;

    /** False for an op this store refuses with INVALID_ARGUMENT. */
    virtual bool serves(OpType) const { return true; }

    /**
     * Timed transactions. A read's result carries the resolved chain for
     * caching. @p op and the callable behind @p after_lock are
     * referenced, not copied: both must outlive the returned task
     * (co_await it in the same full-expression, as every caller does).
     */
    virtual sim::Task<OpResult> read_op(const Op& op) = 0;
    virtual sim::Task<OpResult> write_op(const Op& op,
                                         LockedHook after_lock = nullptr) = 0;
    virtual sim::Task<OpResult> subtree_op(Op op,
                                           SubtreeExecution exec = {}) = 0;

    /** Transactions served, by kind. */
    virtual uint64_t total_reads() const = 0;
    virtual uint64_t total_writes() const = 0;

    /** Untimed preload of an existing path (workload setup). */
    virtual void preload(const std::string& p, ns::INodeType type);

    /**
     * Hand back a read result's consumed @p chain (left empty): a later
     * read resolves into its capacity instead of allocating a fresh one
     * (DESIGN.md §10).
     */
    void recycle_chain(std::vector<ns::INode>& chain);

  protected:
    /** An empty chain buffer, recycled by recycle_chain() if any. */
    std::vector<ns::INode> take_chain();

  private:
    std::vector<std::vector<ns::INode>> free_chains_;
};

/**
 * Apply @p p's mkdir (for a file, its parent's mkdir and its create) to
 * @p tree as the superuser, untimed. @return the last op's result.
 */
OpResult preload_path(ns::NamespaceTree& tree, const std::string& p,
                      ns::INodeType type);

}  // namespace lfs::store
