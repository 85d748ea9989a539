// Synchronization primitives for simulation actors.
//
// All primitives resume waiters *through the event queue* (at the current
// virtual instant) rather than inline. That keeps host-stack depth bounded
// and makes wake-up ordering deterministic and FIFO. A waiter captures the
// run context it suspends in and is woken under it (Simulator::wake()), so
// it resumes as its own actor and op, not the releaser's.
//
//   OneShot<T>  — single-producer/single-consumer future (RPC responses,
//                 verb completions).
//   Gate        — manual-reset broadcast event (log-cleaning start/stop,
//                 server readiness).
//   Semaphore   — counting semaphore with FIFO hand-off (server CPU cores).
//   Channel<T>  — unbounded FIFO queue with awaitable pop (request queues).
#pragma once

#include <coroutine>
#include <deque>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "sim/hb.hpp"
#include "sim/simulator.hpp"

namespace efac::sim {

/// Single-value future. Exactly one set() per value; at most one
/// concurrent waiter.
///
/// Single-consumer contract: at most one coroutine may be suspended in
/// wait() at a time. A second wait() while the first waiter is still
/// suspended throws efac::CheckFailure from wait() itself (not from deep
/// inside the awaiter machinery) — callers that need fan-out want a Gate
/// or a Channel, not a OneShot. After the value is consumed the slot is
/// empty again and may be re-set and re-awaited (the RPC layer reuses
/// slots this way).
template <typename T>
class OneShot {
 public:
  explicit OneShot(Simulator& sim) : sim_(sim) {}
  OneShot(const OneShot&) = delete;
  OneShot& operator=(const OneShot&) = delete;

  /// Fulfil the future. The waiter (if any) resumes at the current instant.
  void set(T value) {
    EFAC_CHECK_MSG(!value_.has_value(), "OneShot set twice");
    if (HbHooks* hb = sim_.hb_hooks()) hb->release(clock_);
    value_.emplace(std::move(value));
    if (waiter_) sim_.wake(waiter_ctx_, std::exchange(waiter_, {}));
  }

  [[nodiscard]] bool ready() const noexcept { return value_.has_value(); }

  /// Awaitable: suspends until set(), then yields the value (moved out).
  /// Throws efac::CheckFailure if a waiter is already suspended (see the
  /// single-consumer contract above).
  auto wait() {
    EFAC_CHECK_MSG(!waiter_,
                   "OneShot::wait(): a second waiter attached while the "
                   "first is still suspended — OneShot is single-consumer; "
                   "use a Gate (broadcast) or Channel (queue) for fan-out");
    struct Awaiter {
      OneShot& self;
      bool await_ready() const noexcept { return self.value_.has_value(); }
      void await_suspend(std::coroutine_handle<> h) {
        self.waiter_ctx_ = self.sim_.context();
        self.waiter_ = h;
      }
      T await_resume() {
        EFAC_CHECK(self.value_.has_value());
        if (HbHooks* hb = self.sim_.hb_hooks()) hb->acquire(self.clock_);
        T out = std::move(*self.value_);
        self.value_.reset();
        return out;
      }
    };
    return Awaiter{*this};
  }

 private:
  Simulator& sim_;
  std::optional<T> value_;
  std::coroutine_handle<> waiter_;
  Context waiter_ctx_;
  VectorClock clock_;  ///< carries the setter's clock to the consumer
};

/// Manual-reset broadcast event. wait() suspends while closed; set() wakes
/// every current waiter and lets subsequent waiters pass until reset().
class Gate {
 public:
  explicit Gate(Simulator& sim, bool open = false) : sim_(sim), open_(open) {}
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  void open() {
    open_ = true;
    if (HbHooks* hb = sim_.hb_hooks()) hb->release(clock_);
    for (const Waiter& w : waiters_) sim_.wake(w.ctx, w.handle);
    waiters_.clear();
  }

  void close() noexcept { open_ = false; }

  [[nodiscard]] bool is_open() const noexcept { return open_; }

  auto wait() {
    struct Awaiter {
      Gate& self;
      bool await_ready() const noexcept { return self.open_; }
      void await_suspend(std::coroutine_handle<> h) {
        self.waiters_.push_back(Waiter{h, self.sim_.context()});
      }
      void await_resume() {
        if (HbHooks* hb = self.sim_.hb_hooks()) hb->acquire(self.clock_);
      }
    };
    return Awaiter{*this};
  }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    Context ctx;
  };

  Simulator& sim_;
  bool open_;
  std::deque<Waiter> waiters_;
  VectorClock clock_;  ///< carries the opener's clock to the waiters
};

/// Counting semaphore with FIFO ordering. release() hands the permit
/// directly to the oldest waiter, so permits cannot be stolen by late
/// arrivals (no barging) — important for modelling fair CPU-core queues.
class Semaphore {
 public:
  Semaphore(Simulator& sim, std::size_t permits)
      : sim_(sim), available_(permits), capacity_(permits) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  auto acquire() { return AcquireAwaiter{.self = *this}; }

  void release() {
    if (HbHooks* hb = sim_.hb_hooks()) hb->release(clock_);
    if (!waiters_.empty()) {
      // Direct hand-off: the permit never becomes visible to other acquirers
      // and cannot be double-counted by the resuming waiter.
      AcquireAwaiter* w = waiters_.front();
      waiters_.pop_front();
      w->handed_off = true;
      sim_.wake(w->ctx, w->handle);
    } else {
      EFAC_CHECK_MSG(available_ < capacity_, "Semaphore over-released");
      ++available_;
    }
  }

  [[nodiscard]] std::size_t available() const noexcept { return available_; }
  [[nodiscard]] std::size_t waiting() const noexcept {
    return waiters_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct AcquireAwaiter {
    Semaphore& self;
    bool handed_off = false;
    std::coroutine_handle<> handle{};
    Context ctx{};

    bool await_ready() const noexcept { return self.available_ > 0; }
    void await_suspend(std::coroutine_handle<> h) {
      ctx = self.sim_.context();
      handle = h;
      self.waiters_.push_back(this);
    }
    void await_resume() {
      if (HbHooks* hb = self.sim_.hb_hooks()) hb->acquire(self.clock_);
      if (!handed_off) {
        // Ready path: consume an available permit atomically (the DES is
        // cooperative, so nothing interleaves between ready and resume).
        --self.available_;
      }
    }
  };

  Simulator& sim_;
  std::size_t available_;
  std::size_t capacity_;
  std::deque<AcquireAwaiter*> waiters_;
  VectorClock clock_;  ///< accumulated releaser clocks
};

/// RAII permit holder usable from coroutines:
///   auto permit = co_await SemaphoreLock::acquire(sem);
class SemaphoreLock {
 public:
  static Task<SemaphoreLock> acquire(Semaphore& sem) {
    co_await sem.acquire();
    co_return SemaphoreLock{&sem};
  }

  SemaphoreLock(SemaphoreLock&& other) noexcept
      : sem_(std::exchange(other.sem_, nullptr)) {}
  SemaphoreLock& operator=(SemaphoreLock&& other) noexcept {
    if (this != &other) {
      reset();
      sem_ = std::exchange(other.sem_, nullptr);
    }
    return *this;
  }
  SemaphoreLock(const SemaphoreLock&) = delete;
  SemaphoreLock& operator=(const SemaphoreLock&) = delete;
  ~SemaphoreLock() { reset(); }

  void reset() noexcept {
    if (sem_ != nullptr) {
      sem_->release();
      sem_ = nullptr;
    }
  }

 private:
  explicit SemaphoreLock(Semaphore* sem) : sem_(sem) {}
  Semaphore* sem_;
};

/// Unbounded FIFO channel. Values pushed while consumers wait are handed
/// directly to the oldest waiter (per-waiter slot), so a value can never be
/// stolen between wake-up and resumption.
template <typename T>
class Channel {
 public:
  explicit Channel(Simulator& sim) : sim_(sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void push(T value) {
    HbHooks* const hb = sim_.hb_hooks();
    VectorClock clock;
    if (hb != nullptr) hb->release(clock);
    if (!waiters_.empty()) {
      PopAwaiter* w = waiters_.front();
      waiters_.pop_front();
      w->slot.emplace(std::move(value));
      if (hb != nullptr) w->slot_clock = std::move(clock);
      sim_.wake(w->ctx, w->handle);
    } else {
      items_.push_back(std::move(value));
      // item_clocks_ mirrors items_ only while hooks are attached (they
      // are attached before any traffic and never detached mid-run).
      if (hb != nullptr) item_clocks_.push_back(std::move(clock));
    }
  }

  /// Awaitable pop; FIFO among waiters.
  auto pop() { return PopAwaiter{.self = *this}; }

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] std::size_t waiting_consumers() const noexcept {
    return waiters_.size();
  }

 private:
  struct PopAwaiter {
    Channel& self;
    std::optional<T> slot{};
    std::coroutine_handle<> handle{};
    VectorClock slot_clock{};
    Context ctx{};

    bool await_ready() const noexcept { return !self.items_.empty(); }
    void await_suspend(std::coroutine_handle<> h) {
      ctx = self.sim_.context();
      handle = h;
      self.waiters_.push_back(this);
    }
    T await_resume() {
      HbHooks* const hb = self.sim_.hb_hooks();
      if (slot.has_value()) {
        if (hb != nullptr) hb->acquire(slot_clock);
        return std::move(*slot);  // direct hand-off path
      }
      EFAC_CHECK(!self.items_.empty());
      T out = std::move(self.items_.front());
      self.items_.pop_front();
      if (hb != nullptr && !self.item_clocks_.empty()) {
        hb->acquire(self.item_clocks_.front());
        self.item_clocks_.pop_front();
      }
      return out;
    }
  };

  Simulator& sim_;
  std::deque<T> items_;
  std::deque<VectorClock> item_clocks_;  ///< pusher clocks, per queued item
  std::deque<PopAwaiter*> waiters_;
};

}  // namespace efac::sim
