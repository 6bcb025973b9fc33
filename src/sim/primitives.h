/**
 * @file
 * Awaitable synchronization primitives for simulated processes.
 *
 * All primitives resume waiters *through the simulation event loop* (at the
 * current simulated instant) rather than inline. This bounds native stack
 * depth and preserves deterministic FIFO ordering between processes that
 * become runnable at the same instant.
 *
 * Lifetime rule: a coroutine suspended on one of these primitives must not
 * be destroyed while suspended (the primitive holds a raw handle). In this
 * codebase processes run to completion; cancellation is expressed with
 * OneShot::try_set (e.g. OneShot::expire_after timeouts) instead of frame
 * destruction.
 */
#pragma once

#include <cassert>
#include <coroutine>
#include <deque>
#include <memory>
#include <optional>
#include <utility>

#include "src/sim/simulation.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace lfs::sim {

/** Awaitable that resumes the process after a simulated delay. */
class Delay {
  public:
    Delay(Simulation& sim, SimTime d) : sim_(sim), delay_(d) {}

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        sim_.schedule(delay_, h);
    }

    void await_resume() const noexcept {}

  private:
    Simulation& sim_;
    SimTime delay_;
};

/** co_await delay(sim, msec(3)) suspends the calling process for 3 ms. */
inline Delay delay(Simulation& sim, SimTime d) { return Delay(sim, d); }

/**
 * A write-once cell with a single awaiting consumer.
 *
 * The producer side is idempotent: only the first try_set() wins, which is
 * how response-vs-timeout races are resolved. An RPC's reply cell is
 * shared between the waiter and every round racing into it, so a late
 * producer (e.g. a straggler reply) can still safely call try_set on an
 * already-completed cell; make_shared_one_shot() allocates that shared
 * cell from the frame pool.
 */
template <typename T>
class OneShot {
  public:
    explicit OneShot(Simulation& sim) : sim_(sim) {}
    OneShot(const OneShot&) = delete;
    OneShot& operator=(const OneShot&) = delete;

    ~OneShot()
    {
        if (timer_) {
            sim_.cancel(timer_);
        }
    }

    /** Set the value if not already set. @return true if this call won. */
    bool
    try_set(T value)
    {
        if (value_.has_value()) {
            return false;
        }
        value_.emplace(std::move(value));
        if (timer_) {
            sim_.cancel(std::exchange(timer_, {}));  // the race is decided
        }
        if (waiter_) {
            auto h = std::exchange(waiter_, {});
            sim_.schedule(0, h);
        }
        return true;
    }

    /**
     * Race the cell against a timer: unless a value wins first, @p make()
     * is set @p timeout from now. A winning try_set (or the cell's
     * destruction) cancels the timer, so a timeout costs nothing once the
     * reply is in. The timer holds only `this` and @p make, well inside
     * the kernel's inline event buffer.
     */
    void
    expire_after(SimTime timeout, T (*make)())
    {
        assert(!timer_ && "one timeout per cell");
        timer_ = sim_.schedule(timeout, [this, make] {
            timer_ = {};
            try_set(make());
        });
    }

    bool is_set() const { return value_.has_value(); }

    /** Await the value. Exactly one consumer may wait. */
    auto
    wait()
    {
        struct Awaiter {
            OneShot& cell;
            bool await_ready() const noexcept { return cell.value_.has_value(); }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                assert(!cell.waiter_ && "OneShot supports a single waiter");
                cell.waiter_ = h;
            }
            T await_resume() { return std::move(*cell.value_); }
        };
        return Awaiter{*this};
    }

  private:
    Simulation& sim_;
    std::optional<T> value_;
    std::coroutine_handle<> waiter_ = {};
    Simulation::EventId timer_;  ///< pending expire_after timer
};

/**
 * Minimal allocator over detail::FramePool, so shared state that lives
 * exactly as long as the processes sharing it recycles like their frames.
 */
template <typename T>
struct FramePoolAllocator {
    using value_type = T;

    FramePoolAllocator() = default;
    template <typename U>
    FramePoolAllocator(const FramePoolAllocator<U>&) noexcept
    {
    }

    T*
    allocate(size_t n)
    {
        static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                      "FramePool blocks have operator new's alignment");
        return static_cast<T*>(detail::FramePool::allocate(n * sizeof(T)));
    }

    void
    deallocate(T* p, size_t n) noexcept
    {
        detail::FramePool::deallocate(p, n * sizeof(T));
    }

    template <typename U>
    bool
    operator==(const FramePoolAllocator<U>&) const noexcept
    {
        return true;
    }
};

/**
 * A shared OneShot cell (one allocation: object and control block) drawn
 * from the frame pool, so a warm RPC allocates no reply cell. The cell
 * may outlive its waiter: a reply landing after the timeout won still
 * holds a reference and calls try_set on it.
 */
template <typename T>
std::shared_ptr<OneShot<T>>
make_shared_one_shot(Simulation& sim)
{
    return std::allocate_shared<OneShot<T>>(
        FramePoolAllocator<OneShot<T>>{}, sim);
}

/**
 * A one-shot broadcast event: any number of processes may wait; set()
 * releases them all (current and future waiters pass immediately).
 */
class Gate {
  public:
    explicit Gate(Simulation& sim) : sim_(sim) {}

    void
    set()
    {
        if (set_) {
            return;
        }
        set_ = true;
        for (Waiter* w = std::exchange(head_, nullptr); w != nullptr;) {
            Waiter* next = w->next;
            sim_.schedule(0, w->handle);
            w = next;
        }
        tail_ = nullptr;
    }

    bool is_set() const { return set_; }

    auto
    wait()
    {
        // The waiter node lives in the suspended frame's awaiter, so
        // waiting allocates nothing (DESIGN.md §10).
        struct Awaiter {
            Gate& gate;
            Waiter node;
            bool await_ready() const noexcept { return gate.set_; }
            void
            await_suspend(std::coroutine_handle<> h) noexcept
            {
                node.handle = h;
                if (gate.tail_ == nullptr) {
                    gate.head_ = &node;
                } else {
                    gate.tail_->next = &node;
                }
                gate.tail_ = &node;
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this, {}};
    }

  private:
    struct Waiter {
        std::coroutine_handle<> handle;
        Waiter* next = nullptr;
    };

    Simulation& sim_;
    bool set_ = false;
    Waiter* head_ = nullptr;  ///< FIFO of suspended waiters
    Waiter* tail_ = nullptr;
};

/**
 * Counting semaphore with FIFO hand-off: release() passes the permit
 * directly to the oldest waiter, so admission order equals arrival order.
 */
class Semaphore {
  public:
    Semaphore(Simulation& sim, int64_t permits)
        : sim_(sim), permits_(permits)
    {
    }

    /** Acquire one permit, waiting if none are available. */
    auto
    acquire()
    {
        struct Awaiter {
            Semaphore& sem;
            bool
            await_ready()
            {
                if (sem.permits_ > 0) {
                    --sem.permits_;
                    return true;
                }
                return false;
            }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                sem.waiters_.push_back(h);
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

    /** Try to acquire without waiting. */
    bool
    try_acquire()
    {
        if (permits_ > 0) {
            --permits_;
            return true;
        }
        return false;
    }

    /** Return one permit, waking the oldest waiter if any. */
    void
    release()
    {
        if (!waiters_.empty()) {
            auto h = waiters_.front();
            waiters_.pop_front();
            sim_.schedule(0, h);
        } else {
            ++permits_;
        }
    }

    int64_t available() const { return permits_; }
    size_t waiting() const { return waiters_.size(); }

  private:
    Simulation& sim_;
    int64_t permits_;
    std::deque<std::coroutine_handle<>> waiters_;
};

/** RAII permit holder for Semaphore. */
class SemaphoreGuard {
  public:
    explicit SemaphoreGuard(Semaphore& sem) : sem_(&sem) {}
    SemaphoreGuard(SemaphoreGuard&& o) noexcept
        : sem_(std::exchange(o.sem_, nullptr))
    {
    }
    SemaphoreGuard(const SemaphoreGuard&) = delete;
    SemaphoreGuard& operator=(const SemaphoreGuard&) = delete;
    SemaphoreGuard& operator=(SemaphoreGuard&&) = delete;
    ~SemaphoreGuard()
    {
        if (sem_) {
            sem_->release();
        }
    }

  private:
    Semaphore* sem_;
};

/** Mutual exclusion = semaphore with one permit. */
class Mutex : public Semaphore {
  public:
    explicit Mutex(Simulation& sim) : Semaphore(sim, 1) {}
};

/**
 * Unbounded FIFO channel. pop() returns std::nullopt once the channel is
 * closed and drained. Multiple consumers are supported (FIFO hand-off).
 */
template <typename T>
class Channel {
  public:
    explicit Channel(Simulation& sim) : sim_(sim) {}

    /** Enqueue an item; hands it directly to the oldest waiting consumer. */
    void
    push(T item)
    {
        assert(!closed_ && "push on closed channel");
        items_.push_back(std::move(item));
        wake_one();
    }

    /** Close the channel: waiting and future consumers get nullopt. */
    void
    close()
    {
        closed_ = true;
        while (!waiters_.empty()) {
            wake_one();
        }
    }

    bool closed() const { return closed_; }
    size_t size() const { return items_.size(); }

    /** Await the next item (or nullopt after close). */
    Task<std::optional<T>>
    pop()
    {
        while (items_.empty() && !closed_) {
            co_await suspend_consumer();
        }
        if (items_.empty()) {
            co_return std::nullopt;
        }
        T item = std::move(items_.front());
        items_.pop_front();
        co_return std::optional<T>(std::move(item));
    }

  private:
    auto
    suspend_consumer()
    {
        struct Awaiter {
            Channel& ch;
            bool await_ready() const noexcept { return false; }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                ch.waiters_.push_back(h);
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

    void
    wake_one()
    {
        if (!waiters_.empty()) {
            auto h = waiters_.front();
            waiters_.pop_front();
            sim_.schedule(0, h);
        }
    }

    Simulation& sim_;
    bool closed_ = false;
    std::deque<T> items_;
    std::deque<std::coroutine_handle<>> waiters_;
};

/**
 * Barrier for fan-out/fan-in: add() before starting children, done() from
 * each child, wait() resumes once the count returns to zero.
 */
class WaitGroup {
  public:
    explicit WaitGroup(Simulation& sim) : gate_(sim) {}

    void add(int n = 1) { count_ += n; }

    void
    done()
    {
        assert(count_ > 0);
        if (--count_ == 0) {
            gate_.set();
        }
    }

    auto
    wait()
    {
        if (count_ == 0) {
            gate_.set();
        }
        return gate_.wait();
    }

    int count() const { return count_; }

  private:
    int count_ = 0;
    Gate gate_;
};

}  // namespace lfs::sim
