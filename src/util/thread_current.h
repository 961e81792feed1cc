// The thread-current idiom, written once. The fault plane, the adversary
// plane and the three observability sinks (metrics, trace ring, spans) are
// each picked up by their consumers as "the instance current on this
// thread" when the consumer is constructed. A harness installs per-trial
// instances with a Scoped<T> before it builds the trial's world, so every
// trial thread reports into and is perturbed by its own instances only,
// with no locking; that is what keeps parallel trials deterministic.
//
// A type opts in by deriving from ThreadCurrent<T> (CRTP) and providing
// `static T& fallback()`, the instance current() returns on a thread where
// nothing is installed: the process-wide global() sink for observability,
// a permanently disabled plane for faults and adversity.
#pragma once

#include <utility>

namespace lg::util {

template <class T>
class Scoped;

template <class T>
class ThreadCurrent {
 public:
  // The instance installed on this thread by the innermost live Scoped<T>,
  // else T::fallback(). Consumers resolve this once, at construction.
  static T& current() noexcept {
    return slot_ != nullptr ? *slot_ : T::fallback();
  }

 private:
  friend class Scoped<T>;
  static inline thread_local T* slot_ = nullptr;
};

// RAII scope that makes `instance` the thread-current T until it ends, then
// restores whatever was current before. Scopes nest.
template <class T>
class Scoped {
 public:
  explicit Scoped(T& instance) noexcept
      : prev_(std::exchange(ThreadCurrent<T>::slot_, &instance)) {}
  ~Scoped() { ThreadCurrent<T>::slot_ = prev_; }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  T* prev_;
};

}  // namespace lg::util
