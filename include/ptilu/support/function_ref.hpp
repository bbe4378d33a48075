// Non-owning reference to a callable.
//
// FunctionRef<R(Args...)> stores a pointer to a callable object and a
// trampoline that invokes it: two words, no heap, no copy of the callable.
// It is the parameter type for callbacks that are only invoked while the
// call that receives them runs (Machine::step bodies, allreduce value
// functions), where std::function would heap-allocate any lambda whose
// captures exceed its small-buffer size on every call. The referenced
// callable must outlive every invocation; binding a temporary lambda
// argument is fine because it lives until the full expression ends.
#pragma once

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace ptilu {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& fn) noexcept  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_([](void* object, Args... args) -> R {
          return std::invoke(*static_cast<std::remove_reference_t<F>*>(object),
                             std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(object_, std::forward<Args>(args)...); }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace ptilu
