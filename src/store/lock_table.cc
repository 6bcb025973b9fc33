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

uint32_t
LockTable::find_row(ns::INodeId id) const
{
    return index_.find_exact(static_cast<uint64_t>(id)) - 1;
}

uint32_t
LockTable::row_for(ns::INodeId id)
{
    uint32_t slot = find_row(id);
    if (slot != kNoRow) {
        return slot;
    }
    if (free_rows_.empty()) {
        slot = static_cast<uint32_t>(rows_.size());
        rows_.emplace_back();
    } else {
        slot = free_rows_.back();
        free_rows_.pop_back();
    }
    index_.insert(static_cast<uint64_t>(id), slot + 1);
    return slot;
}

bool
LockTable::Acquire::await_ready()
{
    slot_ = table_.row_for(id_);
    Row& row = table_.rows_[slot_];
    // FIFO fairness: a request must queue if anyone is already waiting,
    // even if its mode would be compatible with current holders.
    if (row.head == nullptr && grantable(row, waiter_.exclusive)) {
        if (waiter_.exclusive) {
            row.exclusive = true;
        } else {
            ++row.shared;
        }
        return true;
    }
    return false;
}

void
LockTable::Acquire::await_suspend(std::coroutine_handle<> h) noexcept
{
    // Runs straight after await_ready, so slot_ still names the row.
    Row& row = table_.rows_[slot_];
    waiter_.handle = h;
    if (row.tail == nullptr) {
        row.head = &waiter_;
    } else {
        row.tail->next = &waiter_;
    }
    row.tail = &waiter_;
}

void
LockTable::drain(ns::INodeId id, uint32_t slot)
{
    Row& row = rows_[slot];
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
        index_.erase_key(static_cast<uint64_t>(id));
        free_rows_.push_back(slot);
    }
}

void
LockTable::unlock_shared(ns::INodeId id)
{
    const uint32_t slot = find_row(id);
    assert(slot != kNoRow && rows_[slot].shared > 0);
    --rows_[slot].shared;
    drain(id, slot);
}

void
LockTable::unlock_exclusive(ns::INodeId id)
{
    const uint32_t slot = find_row(id);
    assert(slot != kNoRow && rows_[slot].exclusive);
    rows_[slot].exclusive = false;
    drain(id, slot);
}

bool
LockTable::is_locked(ns::INodeId id) const
{
    const uint32_t slot = find_row(id);
    return slot != kNoRow &&
           (rows_[slot].shared > 0 || rows_[slot].exclusive);
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
