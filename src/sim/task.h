/**
 * @file
 * C++20 coroutine task types used to express simulated processes.
 *
 * Task<T> is a lazily-started coroutine whose completion resumes its awaiter
 * via symmetric transfer. A simulated process is simply a coroutine that
 * co_awaits delays and synchronization primitives (see primitives.h); the
 * kernel in simulation.h supplies the clock.
 *
 * Ownership model: the Task object owns the coroutine frame. Awaiting a
 * Task (``co_await some_task()``) keeps the temporary alive for the full
 * await-expression, so frames are destroyed exactly once, after completion.
 * Detached processes are started with spawn().
 *
 * Frame allocation (DESIGN.md §10): every Task and spawn() frame comes
 * from FramePool, a set of per-size-class intrusive free lists, so a
 * warmed process chain allocates nothing from the heap.
 */
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define LFS_FRAME_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LFS_FRAME_POOL_ASAN 1
#endif
#endif
#ifdef LFS_FRAME_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace lfs::sim {

template <typename T> class Task;

namespace detail {

/**
 * Recycles coroutine frames through intrusive free lists, one per 64-byte
 * size class — the frame analogue of the kernel's event-node pool. A
 * freed frame is parked on its class's list (its first word becomes the
 * next link) and handed back to the next frame of the same class; frames
 * above kMaxPooled go straight to ::operator new/delete. Parked frames
 * go back to the heap only in release_parked(). Lists are per thread, so
 * simulations on different threads never share one. Under
 * AddressSanitizer a parked frame is poisoned until reuse, so touching a
 * recycled frame is still reported (as use-after-poison).
 */
class FramePool {
  public:
    static constexpr size_t kGranule = 64;
    static constexpr size_t kClasses = 64;
    static constexpr size_t kMaxPooled = kGranule * kClasses;

    /** Size class of an @p n-byte frame (valid when n <= kMaxPooled). */
    static constexpr size_t
    size_class(size_t n)
    {
        return n == 0 ? 0 : (n - 1) / kGranule;
    }

    static void*
    allocate(size_t n)
    {
        if (n > kMaxPooled) {
            return ::operator new(n);
        }
        const size_t c = size_class(n);
        Link* head = heads_[c];
        if (head == nullptr) {
            return ::operator new((c + 1) * kGranule);
        }
        unpoison(head, (c + 1) * kGranule);
        heads_[c] = head->next;
        return head;
    }

    static void
    deallocate(void* p, size_t n) noexcept
    {
        if (n > kMaxPooled) {
            ::operator delete(p, n);
            return;
        }
        const size_t c = size_class(n);
        Link* link = static_cast<Link*>(p);
        link->next = heads_[c];
        heads_[c] = link;
        poison(link, (c + 1) * kGranule);
    }

    /**
     * Return a block from allocate(@p n) straight to the heap instead of
     * parking it. For an owner that frees a whole structure at once:
     * parked blocks come back in LIFO order, so the next structure built
     * from them would be laid out in the old one's teardown order.
     */
    static void
    release(void* p, size_t n) noexcept
    {
        ::operator delete(p, n > kMaxPooled ? n
                                            : (size_class(n) + 1) * kGranule);
    }

    /**
     * Return every parked frame to the heap. A Simulation calls this on
     * teardown, so each run starts from an empty pool and its frame
     * allocations depend on that run alone, as with plain new/delete.
     */
    static void
    release_parked() noexcept
    {
        for (size_t c = 0; c < kClasses; ++c) {
            while (Link* link = heads_[c]) {
                unpoison(link, (c + 1) * kGranule);
                heads_[c] = link->next;
                ::operator delete(link, (c + 1) * kGranule);
            }
        }
    }

  private:
    struct Link {
        Link* next;
    };

    static void
    poison([[maybe_unused]] void* p, [[maybe_unused]] size_t n) noexcept
    {
#ifdef LFS_FRAME_POOL_ASAN
        ASAN_POISON_MEMORY_REGION(p, n);
#endif
    }

    static void
    unpoison([[maybe_unused]] void* p, [[maybe_unused]] size_t n) noexcept
    {
#ifdef LFS_FRAME_POOL_ASAN
        ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
    }

    static inline thread_local Link* heads_[kClasses] = {};
};

/** Routes a promise type's frame allocation through FramePool. */
struct PooledFrame {
    static void* operator new(size_t n) { return FramePool::allocate(n); }

    static void
    operator delete(void* p, size_t n) noexcept
    {
        FramePool::deallocate(p, n);
    }
};

/** Resumes the awaiting coroutine (if any) when a task finishes. */
struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }

    template <typename Promise>
    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<Promise> h) noexcept
    {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
    }

    void await_resume() const noexcept {}
};

struct TaskPromiseBase : PooledFrame {
    std::coroutine_handle<> continuation;
    std::exception_ptr exception;

    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct TaskPromise : TaskPromiseBase {
    std::optional<T> value;

    Task<T> get_return_object();
    void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct TaskPromise<void> : TaskPromiseBase {
    Task<void> get_return_object();
    void return_void() {}
};

}  // namespace detail

/**
 * A lazily-started coroutine producing a value of type T.
 *
 * Must be either co_awaited or passed to spawn(); a Task that is destroyed
 * without ever being started simply releases its frame.
 */
template <typename T = void>
class [[nodiscard]] Task {
  public:
    using promise_type = detail::TaskPromise<T>;
    using Handle = std::coroutine_handle<promise_type>;

    Task() = default;
    explicit Task(Handle h) : handle_(h) {}
    Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}

    Task&
    operator=(Task&& other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, {});
        }
        return *this;
    }

    Task(const Task&) = delete;
    Task& operator=(const Task&) = delete;

    ~Task() { destroy(); }

    /** True if this task refers to a live coroutine frame. */
    bool valid() const { return static_cast<bool>(handle_); }

    /** Awaiting a Task starts it and resumes the awaiter on completion. */
    auto
    operator co_await() && noexcept
    {
        struct Awaiter {
            Handle h;

            bool await_ready() const noexcept { return !h || h.done(); }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> cont) noexcept
            {
                h.promise().continuation = cont;
                return h;  // Start (or continue) the child via symmetric transfer.
            }

            T
            await_resume()
            {
                auto& p = h.promise();
                if (p.exception) {
                    std::rethrow_exception(p.exception);
                }
                if constexpr (!std::is_void_v<T>) {
                    return std::move(*p.value);
                }
            }
        };
        return Awaiter{handle_};
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = {};
        }
    }

    Handle handle_;
};

namespace detail {

template <typename T>
Task<T>
TaskPromise<T>::get_return_object()
{
    return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void>
TaskPromise<void>::get_return_object()
{
    return Task<void>(
        std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace detail

/**
 * Handle type for fire-and-forget processes. The coroutine frame manages its
 * own lifetime (it is destroyed automatically when it runs to completion).
 */
struct Detached {
    struct promise_type : detail::PooledFrame {
        Detached get_return_object() { return {}; }
        std::suspend_never initial_suspend() noexcept { return {}; }
        std::suspend_never final_suspend() noexcept { return {}; }
        void return_void() {}
        void unhandled_exception() { std::terminate(); }
    };
};

/**
 * Start @p task as a detached simulated process. The task begins executing
 * immediately (until its first suspension point).
 */
inline Detached
spawn(Task<void> task)
{
    co_await std::move(task);
}

}  // namespace lfs::sim
