#include "src/store/lock_table.h"

#include <algorithm>
#include <cassert>

#include "src/util/path.h"

namespace lfs::store {

bool
LockTable::grantable(const Row& row, bool exclusive)
{
    if (exclusive) {
        return row.shared == 0 && !row.exclusive;
    }
    // Shared: grantable unless a writer holds it or is queued ahead
    // (waiter-queue check happens at enqueue time; see lock()).
    return !row.exclusive;
}

sim::Task<void>
LockTable::lock(ns::INodeId id, bool exclusive)
{
    Row& row = rows_[id];
    // FIFO fairness: a request must queue if anyone is already waiting,
    // even if its mode would be compatible with current holders.
    if (row.head == nullptr && grantable(row, exclusive)) {
        if (exclusive) {
            row.exclusive = true;
        } else {
            ++row.shared;
        }
        co_return;
    }
    struct Enqueue {
        Row& row;
        Waiter waiter;
        bool await_ready() const noexcept { return false; }
        void
        await_suspend(std::coroutine_handle<> h) noexcept
        {
            waiter.handle = h;
            if (row.tail == nullptr) {
                row.head = &waiter;
            } else {
                row.tail->next = &waiter;
            }
            row.tail = &waiter;
        }
        void await_resume() const noexcept {}
    };
    co_await Enqueue{row, Waiter{{}, nullptr, exclusive}};
    // drain() granted the lock before resuming us.
}

sim::Task<void>
LockTable::lock_shared(ns::INodeId id)
{
    return lock(id, /*exclusive=*/false);
}

sim::Task<void>
LockTable::lock_exclusive(ns::INodeId id)
{
    return lock(id, /*exclusive=*/true);
}

sim::Task<void>
LockTable::lock_exclusive_ordered(std::vector<ns::INodeId> ids)
{
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    for (ns::INodeId id : ids) {
        co_await lock_exclusive(id);
    }
}

void
LockTable::drain(ns::INodeId id)
{
    auto it = rows_.find(id);
    if (it == rows_.end()) {
        return;
    }
    Row& row = it->second;
    // Grant the head waiter; if it is shared, batch all consecutive
    // shared waiters behind it.
    while (row.head != nullptr && grantable(row, row.head->exclusive)) {
        // Copy out before scheduling: the waiter dies with its frame.
        const Waiter w = *row.head;
        row.head = w.next;
        if (row.head == nullptr) {
            row.tail = nullptr;
        }
        if (w.exclusive) {
            row.exclusive = true;
        } else {
            ++row.shared;
        }
        sim_.schedule(0, w.handle);
        if (w.exclusive) {
            break;
        }
    }
    if (row.head == nullptr && row.shared == 0 && !row.exclusive) {
        rows_.erase(it);
    }
}

void
LockTable::unlock_shared(ns::INodeId id)
{
    auto it = rows_.find(id);
    assert(it != rows_.end() && it->second.shared > 0);
    --it->second.shared;
    drain(id);
}

void
LockTable::unlock_exclusive(ns::INodeId id)
{
    auto it = rows_.find(id);
    assert(it != rows_.end() && it->second.exclusive);
    it->second.exclusive = false;
    drain(id);
}

void
LockTable::unlock_exclusive_all(const std::vector<ns::INodeId>& ids)
{
    std::vector<ns::INodeId> sorted(ids);
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    // Release in reverse order (harmless either way; mirrors acquisition).
    for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
        unlock_exclusive(*it);
    }
}

bool
LockTable::is_locked(ns::INodeId id) const
{
    auto it = rows_.find(id);
    return it != rows_.end() &&
           (it->second.shared > 0 || it->second.exclusive);
}

Status
LockTable::try_acquire_subtree(const std::string& root_path)
{
    std::string normalized = path::normalize(root_path);
    for (const std::string& active : subtree_roots_) {
        if (path::is_under(normalized, active) ||
            path::is_under(active, normalized)) {
            return Status::failed_precondition(
                "overlapping subtree operation on " + active);
        }
    }
    subtree_roots_.push_back(normalized);
    return Status::make_ok();
}

void
LockTable::release_subtree(const std::string& root_path)
{
    std::string normalized = path::normalize(root_path);
    subtree_roots_.erase(
        std::remove(subtree_roots_.begin(), subtree_roots_.end(), normalized),
        subtree_roots_.end());
}

bool
LockTable::overlaps_active_subtree(const std::string& p) const
{
    for (const std::string& active : subtree_roots_) {
        if (path::is_under(p, active) || path::is_under(active, p)) {
            return true;
        }
    }
    return false;
}

}  // namespace lfs::store
