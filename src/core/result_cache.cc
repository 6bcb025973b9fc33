#include "src/core/result_cache.h"

#include <algorithm>
#include <bit>

namespace lfs::core {

void
ResultCache::Retained::assign(const OpResult& r)
{
    status = r.status;
    inode = r.inode;
    children = r.children;
    inodes_touched = r.inodes_touched;
    stats = r.stats;
    cache_hit = r.cache_hit;
    via_symlink = r.via_symlink;
}

OpResult
ResultCache::Retained::to_result() const
{
    OpResult r;
    r.status = status;
    r.inode = inode;
    r.children = children;
    r.inodes_touched = inodes_touched;
    r.stats = stats;
    r.cache_hit = cache_hit;
    r.via_symlink = via_symlink;
    return r;
}

ResultCache::ResultCache(sim::Simulation& sim, size_t capacity)
    : sim_(sim), capacity_(capacity)
{
}

size_t
ResultCache::home(uint64_t op_id) const
{
    // Fibonacci hashing: op ids differ in their low (sequence) and high
    // (client) bits, and only the product's top bits depend on both.
    return static_cast<size_t>((op_id * 0x9e3779b97f4a7c15ULL) >>
                               index_shift_);
}

ResultCache::Cell*
ResultCache::find(uint64_t op_id)
{
    if (index_.empty()) {
        return nullptr;
    }
    const size_t mask = index_.size() - 1;
    for (size_t i = home(op_id);; i = (i + 1) & mask) {
        if (index_[i].op_id == op_id) {
            return &index_[i];
        }
        if (index_[i].op_id == 0) {
            return nullptr;
        }
    }
}

void
ResultCache::insert(uint64_t op_id, uint32_t slot)
{
    if (4 * (index_used_ + 1) > 3 * index_.size()) {
        std::vector<Cell> old = std::move(index_);
        index_.assign(std::max<size_t>(16, 2 * old.size()), Cell{});
        index_shift_ = 64 - std::countr_zero(index_.size());
        index_used_ = 0;
        for (const Cell& c : old) {
            if (c.op_id != 0) {
                insert(c.op_id, c.slot);
            }
        }
    }
    const size_t mask = index_.size() - 1;
    size_t i = home(op_id);
    while (index_[i].op_id != 0) {
        i = (i + 1) & mask;
    }
    index_[i] = Cell{op_id, slot};
    ++index_used_;
}

void
ResultCache::erase(Cell* cell)
{
    const size_t mask = index_.size() - 1;
    size_t hole = static_cast<size_t>(cell - index_.data());
    // Pull later cells of the probe run back over the hole when the hole
    // lies between their home and their current position.
    for (size_t j = (hole + 1) & mask; index_[j].op_id != 0;
         j = (j + 1) & mask) {
        size_t h = home(index_[j].op_id);
        if (((j - h) & mask) >= ((j - hole) & mask)) {
            index_[hole] = index_[j];
            hole = j;
        }
    }
    index_[hole] = Cell{};
    --index_used_;
}

uint32_t
ResultCache::claim_slot()
{
    uint32_t slot;
    if (!free_.empty()) {
        slot = free_.back();  // LIFO: the warmest buffers come back first
        free_.pop_back();
    } else {
        slot = static_cast<uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.prev = newest_;
    s.next = kNone;
    if (newest_ != kNone) {
        slots_[newest_].next = slot;
    } else {
        oldest_ = slot;
    }
    newest_ = slot;
    return slot;
}

void
ResultCache::free_slot(uint32_t slot)
{
    Slot& s = slots_[slot];
    if (s.prev != kNone) {
        slots_[s.prev].next = s.next;
    } else {
        oldest_ = s.next;
    }
    if (s.next != kNone) {
        slots_[s.next].prev = s.prev;
    } else {
        newest_ = s.prev;
    }
    free_.push_back(slot);
}

sim::Task<std::optional<OpResult>>
ResultCache::lookup_or_begin(uint64_t op_id)
{
    if (op_id == 0 || capacity_ == 0) {
        co_return std::nullopt;
    }
    const Cell* cell = find(op_id);
    if (cell == nullptr) {
        insert(op_id, kInFlight);
        co_return std::nullopt;
    }
    ++hits_;
    if (cell->slot != kInFlight) {
        co_return slots_[cell->slot].result.to_result();
    }
    // Join the original execution: shared_ptr keeps the entry alive
    // across complete()'s erase, and coroutines always run to
    // completion in this simulator, so the gate is guaranteed to open.
    std::shared_ptr<Pending>& joined = joined_[op_id];
    if (!joined) {
        joined = std::make_shared<Pending>(sim_);
    }
    std::shared_ptr<Pending> entry = joined;
    co_await entry->gate.wait();
    co_return entry->result.to_result();
}

void
ResultCache::complete(uint64_t op_id, const OpResult& result)
{
    if (op_id == 0 || capacity_ == 0) {
        return;
    }
    const Cell* cell = find(op_id);
    if (cell != nullptr && cell->slot != kInFlight) {
        return;  // already done: the first completion wins
    }
    if (!joined_.empty()) {
        auto it = joined_.find(op_id);
        if (it != joined_.end()) {
            it->second->result.assign(result);
            it->second->gate.set();
            joined_.erase(it);
        }
    }
    // Expire every record that falls out of the last capacity_
    // completions, this one included: exactly the records a FIFO ring of
    // capacity_ slots would have overwritten by now.
    ++completions_;
    while (oldest_ != kNone &&
           completions_ - slots_[oldest_].completion >= capacity_) {
        const uint32_t expired = oldest_;
        erase(find(slots_[expired].op_id));
        free_slot(expired);
    }
    uint32_t slot = claim_slot();
    Slot& s = slots_[slot];
    s.op_id = op_id;
    s.completion = completions_;
    s.result.assign(result);
    // Erasures may have moved op_id's cell: look it up again.
    if (Cell* c = find(op_id); c != nullptr) {
        c->slot = slot;
    } else {
        insert(op_id, slot);
    }
}

void
ResultCache::release(uint64_t op_id)
{
    if (op_id == 0) {
        return;
    }
    Cell* cell = find(op_id);
    if (cell == nullptr || cell->slot == kInFlight) {
        return;
    }
    const uint32_t slot = cell->slot;
    erase(cell);
    free_slot(slot);
}

}  // namespace lfs::core
