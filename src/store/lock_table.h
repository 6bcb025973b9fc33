/**
 * @file
 * Row-level and subtree-level locking for the persistent metadata store.
 *
 * HopsFS (and therefore λFS) serializes conflicting metadata transactions
 * with per-inode shared/exclusive row locks in NDB, acquired in a global
 * total order (ascending inode id) to avoid deadlock, plus application-
 * level subtree lock flags that give subtree operations isolation (§3.5,
 * Appendix D).
 */
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "src/namespace/inode.h"
#include "src/sim/primitives.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"
#include "src/util/status.h"

namespace lfs::store {

/** FIFO-fair shared/exclusive row locks keyed by inode id. */
class LockTable {
  public:
    explicit LockTable(sim::Simulation& sim) : sim_(sim) {}

    /** Acquire a shared lock on @p id (waits behind queued writers). */
    sim::Task<void> lock_shared(ns::INodeId id);

    /** Acquire an exclusive lock on @p id. */
    sim::Task<void> lock_exclusive(ns::INodeId id);

    /**
     * Acquire exclusive locks on all of @p ids in ascending-id order
     * (the deadlock-avoidance discipline). Duplicates are ignored.
     */
    sim::Task<void> lock_exclusive_ordered(std::vector<ns::INodeId> ids);

    void unlock_shared(ns::INodeId id);
    void unlock_exclusive(ns::INodeId id);
    void unlock_exclusive_all(const std::vector<ns::INodeId>& ids);

    /** True if @p id is currently locked in any mode. */
    bool is_locked(ns::INodeId id) const;

    // ------------------------------------------------------------------
    // Subtree operation locks (application-level flags)
    // ------------------------------------------------------------------

    /**
     * Try to flag a subtree operation rooted at @p root_path. Fails with
     * kFailedPrecondition if an active subtree operation overlaps (is an
     * ancestor or descendant of) the requested root.
     */
    Status try_acquire_subtree(const std::string& root_path);

    /** Clear the subtree flag (idempotent). */
    void release_subtree(const std::string& root_path);

    /** True if @p p lies inside (or contains) any active subtree op. */
    bool overlaps_active_subtree(const std::string& p) const;

    size_t active_subtree_ops() const { return subtree_roots_.size(); }

  private:
    /**
     * A queued lock request. It lives in the suspended lock() frame (in
     * the co_await's awaiter), so queueing allocates nothing; drain()
     * unlinks it before scheduling the resume.
     */
    struct Waiter {
        std::coroutine_handle<> handle;
        Waiter* next = nullptr;
        bool exclusive = false;
    };
    /** Holders plus an intrusive FIFO of waiters (head..tail). */
    struct Row {
        int shared = 0;
        bool exclusive = false;
        Waiter* head = nullptr;
        Waiter* tail = nullptr;
    };

    /** True if a lock of the given mode can be granted right now. */
    static bool grantable(const Row& row, bool exclusive);

    /** Wake queued waiters that can now be admitted (FIFO, batch shared). */
    void drain(ns::INodeId id);

    sim::Task<void> lock(ns::INodeId id, bool exclusive);

    sim::Simulation& sim_;
    std::unordered_map<ns::INodeId, Row> rows_;
    std::vector<std::string> subtree_roots_;
};

}  // namespace lfs::store
