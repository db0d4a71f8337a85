/// \file once_slot.hpp
/// A lazily built, thread-safe cached value: `core::OnceSlot<T>`.

#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <new>

namespace bb::core {

/// A `T` built on first use, exactly once, under `std::call_once`:
/// concurrent first callers wait while one of them builds it, and later
/// calls only read (one acquire load of a ready flag, no `call_once`). An
/// unused slot is one null pointer — nothing is allocated until the first
/// `get`. The value is constructed in place from what the build returns,
/// so `T` need not be movable. The slot is movable (the built value moves
/// with it), not copyable; moving or resetting a slot while another
/// thread reads it is a data race like any other mutation.
template <class T>
class OnceSlot {
 public:
  OnceSlot() = default;
  OnceSlot(const OnceSlot&) = delete;
  OnceSlot& operator=(const OnceSlot&) = delete;
  OnceSlot(OnceSlot&& o) noexcept : state_(o.state_.exchange(nullptr)) {}
  OnceSlot& operator=(OnceSlot&& o) noexcept {
    if (this != &o) delete state_.exchange(o.state_.exchange(nullptr));
    return *this;
  }
  ~OnceSlot() { delete state_.load(); }

  /// Drop the value (if built); the next `get` builds it again.
  void reset() noexcept { delete state_.exchange(nullptr); }

  /// The value, built by `build()` on the first call. If `build` throws,
  /// the exception propagates and the next call tries again.
  template <class Build>
  [[nodiscard]] const T& get(Build&& build) const {
    if (const T* built = ifBuilt()) return *built;
    State& s = state();
    std::call_once(s.once, [&] {
      ::new (static_cast<void*>(&s.value)) T(build());
      s.ready.store(true, std::memory_order_release);
    });
    return s.value;
  }

  /// The value if it has been built, else null. Safe to call while
  /// another thread is inside `get`.
  [[nodiscard]] const T* ifBuilt() const noexcept {
    const State* s = state_.load(std::memory_order_acquire);
    return s != nullptr && s->ready.load(std::memory_order_acquire) ? &s->value : nullptr;
  }

 private:
  struct State {
    State() {}  // `value` starts unconstructed; `get` builds it
    State(const State&) = delete;
    State& operator=(const State&) = delete;
    ~State() {
      if (ready.load(std::memory_order_acquire)) value.~T();
    }

    std::once_flag once;
    union {
      T value;  ///< alive once `ready` is set
    };
    std::atomic<bool> ready{false};
  };

  /// The shared state, allocated by whichever first caller wins the race.
  State& state() const {
    State* s = state_.load(std::memory_order_acquire);
    if (s == nullptr) {
      auto fresh = std::make_unique<State>();
      if (state_.compare_exchange_strong(s, fresh.get(), std::memory_order_acq_rel)) {
        s = fresh.release();
      }
    }
    return *s;
  }

  mutable std::atomic<State*> state_{nullptr};
};

}  // namespace bb::core
