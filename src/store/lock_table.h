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

#include <coroutine>
#include <cstdint>
#include <string>
#include <vector>

#include "src/namespace/inode.h"
#include "src/sim/primitives.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"
#include "src/util/name_table.h"
#include "src/util/status.h"

namespace lfs::store {

/**
 * FIFO-fair shared/exclusive row locks keyed by inode id.
 *
 * Only rows that are held or waited on exist (DESIGN.md §10): a flat
 * open-addressing index maps an inode id to a slot in a row slab, and a
 * row's slot is recycled as soon as it goes idle. Both are sized by the
 * number of rows locked at once, never by the inode count, so steady-state
 * lock/unlock cycles allocate nothing.
 */
class LockTable {
    /**
     * A queued lock request. It lives in the awaiting coroutine's frame
     * (inside the Acquire being awaited), so queueing allocates nothing;
     * drain() unlinks it before scheduling the resume.
     */
    struct Waiter {
        std::coroutine_handle<> handle;
        Waiter* next = nullptr;
        bool exclusive = false;
    };

  public:
    explicit LockTable(sim::Simulation& sim) : sim_(sim) {}

    /**
     * Awaitable lock request. A free row with no queue is granted in
     * await_ready, without suspending; otherwise the request queues its
     * own waiter and drain() grants it before resuming the awaiter. A
     * lock therefore costs no coroutine frame. Await it at once, in the
     * full-expression that created it.
     */
    class [[nodiscard]] Acquire {
      public:
        bool await_ready();
        void await_suspend(std::coroutine_handle<> h) noexcept;
        void await_resume() const noexcept {}

      private:
        friend class LockTable;
        Acquire(LockTable& table, ns::INodeId id, bool exclusive)
            : table_(table), id_(id), waiter_{{}, nullptr, exclusive}
        {
        }

        LockTable& table_;
        ns::INodeId id_;
        uint32_t slot_ = 0;  ///< row slot, found in await_ready
        Waiter waiter_;
    };

    /** Acquire a shared lock on @p id (waits behind queued writers). */
    Acquire lock_shared(ns::INodeId id) { return {*this, id, false}; }

    /** Acquire an exclusive lock on @p id. */
    Acquire lock_exclusive(ns::INodeId id) { return {*this, id, true}; }

    void unlock_shared(ns::INodeId id);
    void unlock_exclusive(ns::INodeId id);

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
    /** Holders plus an intrusive FIFO of waiters (head..tail). */
    struct Row {
        int shared = 0;
        bool exclusive = false;
        Waiter* head = nullptr;
        Waiter* tail = nullptr;
    };

    /** True if a lock of the given mode can be granted right now. */
    static bool grantable(const Row& row, bool exclusive);

    /** Slab slot of @p id's row, or kNoRow when the row is idle. */
    uint32_t find_row(ns::INodeId id) const;
    /** Slab slot of @p id's row, creating an idle row when absent. */
    uint32_t row_for(ns::INodeId id);

    /** Wake queued waiters that can now be admitted (FIFO, batch shared);
        releases the row's slot once it is idle. */
    void drain(ns::INodeId id, uint32_t slot);

    static constexpr uint32_t kNoRow = 0xffffffffu;

    sim::Simulation& sim_;
    /** Inode id -> slab slot + 1 (0 is the table's empty sentinel). Rows
        may move when the slab grows; nothing holds a Row& across a
        suspension (queued waiters live in their awaiters). */
    util::ChildTable<uint32_t> index_;
    std::vector<Row> rows_;          ///< row slab
    std::vector<uint32_t> free_rows_;  ///< recycled slab slots
    std::vector<std::string> subtree_roots_;
};

}  // namespace lfs::store
