/**
 * @file
 * A non-owning reference to a callable: two words, no heap, no copy of
 * the target. For hooks that are invoked only while the caller's
 * callable is alive — typically a lambda temporary passed into a
 * coroutine that the caller co_awaits in the same full-expression.
 */
#pragma once

#include <cassert>
#include <memory>
#include <type_traits>
#include <utility>

namespace lfs::util {

template <class Sig>
class FunctionRef;

template <class R, class... Args>
class FunctionRef<R(Args...)> {
  public:
    /** The empty reference; operator bool is false. */
    FunctionRef() = default;
    FunctionRef(std::nullptr_t) {}

    /** Reference @p f, which must outlive every call through *this. */
    template <class F,
              class = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                  std::is_invocable_r_v<R, F&, Args...>>>
    FunctionRef(F&& f)  // NOLINT(google-explicit-constructor)
        : obj_(const_cast<void*>(
              static_cast<const void*>(std::addressof(f)))),
          call_([](void* obj, Args... args) -> R {
              return (*static_cast<std::remove_reference_t<F>*>(obj))(
                  std::forward<Args>(args)...);
          })
    {
    }

    explicit operator bool() const { return call_ != nullptr; }

    R
    operator()(Args... args) const
    {
        assert(call_ != nullptr);
        return call_(obj_, std::forward<Args>(args)...);
    }

  private:
    void* obj_ = nullptr;
    R (*call_)(void*, Args...) = nullptr;
};

}  // namespace lfs::util
