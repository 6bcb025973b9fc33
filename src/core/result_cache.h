/**
 * @file
 * Deployment-scoped retained-result cache for transparently resubmitted
 * requests (§3.2). One cache is shared by every NameNode instance of a
 * deployment, which closes the two holes a per-instance cache leaves
 * under faults:
 *
 *  - an instance that executed an op and died before its reply was
 *    delivered takes a per-instance cache with it, so the client's
 *    resubmission would re-execute a committed non-idempotent op on the
 *    replacement instance (surfacing a spurious ALREADY_EXISTS /
 *    NOT_FOUND for an acknowledged-committable write);
 *  - a resubmission racing the still-in-flight original would execute
 *    concurrently; whichever finished last would overwrite the recorded
 *    result, letting the duplicate's error clobber the original's OK.
 *
 * lookup_or_begin() therefore distinguishes *done* results (returned
 * immediately), *in-flight* executions (the caller suspends on the
 * original's completion gate and returns its result), and unseen ids
 * (the caller becomes the executor and must call complete()). The first
 * completion wins; duplicates never execute.
 *
 * In the real system this table lives in the serverless functions'
 * shared persistent store; the simulator charges the lookup through the
 * NameNode's compute path at its call sites.
 *
 * Retention (DESIGN.md §10): a done result stays visible until the
 * first of two events. Either the client releases it (release(): the
 * op's only attempt has been answered, so no copy of the request can
 * still reach a NameNode), or it falls out of the last `capacity`
 * completions at this deployment. Released completions still count
 * toward that window, so an unreleased record expires exactly when a
 * FIFO ring of `capacity` slots would have overwritten it.
 *
 * Layout: done results live in a slab of slots that grows only with the
 * number of live records. Live slots are linked in completion order on
 * an intrusive FIFO list, whose head is the next to expire; freed slots
 * go on a LIFO free list. An open-addressing op_id table indexes the slots
 * and marks in-flight ids. A slot keeps only what a resubmitting client
 * can observe (no resolved chain, ledger or trace id), and its strings
 * and vectors are reused in place, so a warm lookup/complete/release
 * round allocates nothing. A completion gate exists only for ids a
 * duplicate actually joined.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/namespace/op.h"
#include "src/sim/primitives.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace lfs::core {

class ResultCache {
  public:
    /**
     * @p capacity is the retention window in completions: a record
     * unreleased after that many later completions expires (0 disables
     * caching).
     */
    ResultCache(sim::Simulation& sim, size_t capacity);

    /**
     * Dedup entry point for one (re)submitted request.
     * @return the retained result when @p op_id already completed; the
     *         original execution's result (after suspending on it) when
     *         @p op_id is currently in flight; std::nullopt when this
     *         caller is the first — it must execute the op and call
     *         complete() with the outcome on every path.
     */
    sim::Task<std::optional<OpResult>> lookup_or_begin(uint64_t op_id);

    /** Record @p op_id's outcome and release any joined resubmissions. */
    void complete(uint64_t op_id, const OpResult& result);

    /**
     * Drop @p op_id's retained result: its client has the answer and no
     * copy of the request is still on its way. No-op for an id that is
     * absent, still in flight, or already expired.
     */
    void release(uint64_t op_id);

    uint64_t hits() const { return hits_; }
    /** Done results currently retained. */
    size_t live() const { return slots_.size() - free_.size(); }

  private:
    /** The fields of an OpResult a resubmitted client can observe. */
    struct Retained {
        Status status;
        ns::INode inode;
        std::vector<std::string> children;
        int64_t inodes_touched = 1;
        ns::FsStats stats;
        bool cache_hit = false;
        bool via_symlink = false;

        /** Copy-assign from @p r, reusing this slot's buffers. */
        void assign(const OpResult& r);
        OpResult to_result() const;
    };

    static constexpr uint32_t kNone = ~uint32_t{0};

    struct Slot {
        uint64_t op_id = 0;
        uint64_t completion = 0;  ///< this deployment's completion count
        uint32_t prev = kNone;    ///< FIFO neighbours (completion order)
        uint32_t next = kNone;
        Retained result;
    };

    /** An in-flight id that a duplicate joined. */
    struct Pending {
        explicit Pending(sim::Simulation& sim) : gate(sim) {}
        sim::Gate gate;
        Retained result;
    };

    /** Index cell: op_id (0 = empty) -> slot, or kInFlight. */
    struct Cell {
        uint64_t op_id = 0;
        uint32_t slot = 0;
    };
    static constexpr uint32_t kInFlight = ~uint32_t{0};

    size_t home(uint64_t op_id) const;
    /** The cell holding @p op_id, or nullptr. */
    Cell* find(uint64_t op_id);
    /** Map @p op_id (absent) to @p slot, growing the table under load. */
    void insert(uint64_t op_id, uint32_t slot);
    /** Remove @p cell (occupied) by backward-shift deletion. */
    void erase(Cell* cell);
    /** A free slot, appended to the FIFO list as the newest record. */
    uint32_t claim_slot();
    /** Unlink @p slot from the FIFO list and free it (index untouched). */
    void free_slot(uint32_t slot);

    sim::Simulation& sim_;
    size_t capacity_;
    uint64_t hits_ = 0;
    uint64_t completions_ = 0;  ///< recorded completions so far
    std::vector<Slot> slots_;   ///< slab; grows only with live records
    std::vector<uint32_t> free_;  ///< LIFO free list into slots_
    uint32_t oldest_ = kNone;   ///< FIFO head: next record to expire
    uint32_t newest_ = kNone;   ///< FIFO tail
    std::vector<Cell> index_; ///< linear probing, power-of-two size
    size_t index_used_ = 0;
    int index_shift_ = 64;    ///< 64 - log2(index_.size())
    std::unordered_map<uint64_t, std::shared_ptr<Pending>> joined_;
};

}  // namespace lfs::core
