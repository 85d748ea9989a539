// Deterministic discrete-event simulator with a virtual nanosecond clock.
//
// The Simulator owns a time-ordered event queue. Events are either
// coroutine resumptions (the common case: a delay elapsing, a verb
// completing) or plain callbacks, stored as allocation-free tagged small
// callables (see sim/event.hpp). Two events scheduled for the same instant
// fire in FIFO order of scheduling, which makes every run bit-reproducible;
// dispatch_hash() folds the dispatch order into a checksum so tests can
// prove it.
//
// The queue is two-level, tuned for the simulation's actual deadline
// distribution (fixed RDMA/NVM latencies a few microseconds out):
//
//   * a bucket wheel of kWheelSpan one-nanosecond buckets covering
//     [now, now + kWheelSpan): O(1) insert, O(1) next-event lookup via a
//     hierarchical occupancy bitmap, in-order append within a bucket (one
//     bucket == one instant, so append order IS (time, seq) order);
//   * a 4-ary min-heap on (time, seq) for far timers (object timeouts,
//     settle periods) beyond the wheel horizon.
//
// Far events are dispatched straight from the heap when due. At an instant
// present in both structures the heap drains first: a heap event at time T
// was necessarily scheduled while T - now >= kWheelSpan, i.e. before any
// wheel event at T, so heap-first preserves global same-time FIFO.
//
// Every event carries the run context it was scheduled in (sim::Context:
// the sanitizer's actor and the flight recorder's op) and dispatch restores
// it, so a delay resumes under the context it suspended in and a callback
// runs under its scheduler's. A sync-primitive wake-up is scheduled in the
// waiter's context instead (wake()).
//
// Actors are coroutines returning sim::Task<>; detached root actors are
// started with spawn(). The Simulator tracks unfinished root frames and
// destroys them on destruction so that abandoned actors (e.g. an infinite
// background-thread loop stopped by run_until) do not leak.
//
// Observers that sample on a period (the telemetry sampler) ride a clock
// watch instead of scheduling events of their own: the simulator calls
// them back at each period boundary the clock passes, outside the event
// queue, so turning them on leaves the schedule and dispatch_hash() as
// they were.
#pragma once

#include <array>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "sim/event.hpp"
#include "sim/hb.hpp"
#include "sim/task.hpp"

namespace efac::sim {

class Simulator {
 public:
  /// Wheel horizon in nanoseconds (and buckets: one bucket per ns).
  static constexpr std::size_t kWheelBits = 13;
  static constexpr std::size_t kWheelSpan = std::size_t{1} << kWheelBits;

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Current virtual time (ns).
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule a coroutine resumption at absolute virtual time `t` (>= now).
  void schedule_at(SimTime t, std::coroutine_handle<> h) {
    EFAC_CHECK_MSG(t >= now_, "scheduling into the past");
    EFAC_CHECK(h);
    enqueue(Event::coroutine(t, next_seq_++, ctx_, h));
  }

  /// Schedule a coroutine resumption `d` ns from now.
  void schedule_after(SimDuration d, std::coroutine_handle<> h) {
    schedule_at(now_ + d, h);
  }

  /// Schedule a plain callback at absolute virtual time `t`. Any callable;
  /// small captures are stored inline in the event (no allocation).
  template <typename F>
  void call_at(SimTime t, F&& fn) {
    static_assert(std::is_invocable_v<std::decay_t<F>&>);
    EFAC_CHECK_MSG(t >= now_, "scheduling into the past");
    if constexpr (std::is_constructible_v<bool, const std::decay_t<F>&>) {
      EFAC_CHECK(static_cast<bool>(fn));  // e.g. an empty std::function
    }
    enqueue(Event::callback(t, next_seq_++, ctx_, std::forward<F>(fn)));
  }

  /// Schedule a plain callback `d` ns from now.
  template <typename F>
  void call_after(SimDuration d, F&& fn) {
    call_at(now_ + d, std::forward<F>(fn));
  }

  /// Resume the parked waiter `h` at the current instant under `waiter`,
  /// the context it suspended in, rather than the releaser's (sync
  /// primitive wake-ups). One sequence number, like schedule_after(0, h).
  void wake(const Context& waiter, std::coroutine_handle<> h) {
    EFAC_CHECK(h);
    enqueue(Event::coroutine(now_, next_seq_++, waiter, h));
  }

  /// The context of the running event. Pure bookkeeping: it never
  /// schedules and never draws RNG, so the schedule is the same whatever
  /// it holds. With no checker attached the actor stays 0.
  [[nodiscard]] const Context& context() const noexcept { return ctx_; }
  /// Enter the sanitizer's clock domain `actor` (Checker, ActorScope).
  void set_actor(std::uint32_t actor) noexcept { ctx_.actor = actor; }
  /// Publish the flight recorder's current op of the log `domain`.
  void set_op(const void* domain, std::uint32_t op) noexcept {
    ctx_.domain = domain;
    ctx_.op = op;
  }

  /// Start a detached root actor. Runs synchronously until its first
  /// suspension point.
  void spawn(Task<void> task);

  /// Process one event. Returns false if the queue is empty.
  bool step();

  /// Run until the event queue drains. Returns the number of events
  /// processed. Rethrows the first exception escaping a detached task.
  std::size_t run();

  /// Process every event with timestamp <= deadline, then advance the clock
  /// to exactly `deadline`. Events beyond the deadline stay queued.
  std::size_t run_until(SimTime deadline);

  /// Clock watch: call `tick(b)` for every boundary b = t0 + k * period
  /// (k >= 1, t0 = now()) once the clock has passed b, while `*alive`
  /// holds; a watch whose flag has gone false is dropped without firing.
  /// A boundary fires after every event at or before it and before any
  /// later one: dispatching an event at t first fires each boundary < t,
  /// and run_until(deadline) fires each boundary <= deadline after
  /// draining. Boundaries of several watches fire in time order,
  /// registration order at ties. A tick is outside the event queue: it
  /// consumes no sequence number, is not counted by events_processed()
  /// and leaves dispatch_hash() alone, so it must not schedule events.
  /// During a tick now() may still read an earlier instant; use `b`.
  void watch_clock(SimDuration period, std::shared_ptr<const bool> alive,
                   std::function<void(SimTime)> tick);

  /// Number of spawned root actors that have not yet finished.
  [[nodiscard]] std::size_t active_root_tasks() const noexcept {
    return roots_.size();
  }

  /// Number of events waiting in the queue.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return pending_;
  }

  /// Total events processed since construction.
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return events_processed_;
  }

  /// Events dispatched from the bucket wheel (near-future fast path).
  [[nodiscard]] std::uint64_t fast_path_dispatches() const noexcept {
    return fast_path_;
  }

  /// Events dispatched from the far-timer 4-ary heap.
  [[nodiscard]] std::uint64_t heap_fallback_dispatches() const noexcept {
    return heap_fallback_;
  }

  /// Order-sensitive FNV-1a fold of every dispatched (time, seq) pair.
  /// Two runs of the same seeded workload must produce identical hashes —
  /// the determinism test's witness for the scheduler rewrite.
  [[nodiscard]] std::uint64_t dispatch_hash() const noexcept {
    return dispatch_hash_;
  }

  /// Attach happens-before hooks (the conflict sanitizer), which read the
  /// actor from context(). nullptr detaches; with no hooks every
  /// instrumentation site reduces to one pointer test.
  void set_hb_hooks(HbHooks* hb) noexcept { hb_ = hb; }
  [[nodiscard]] HbHooks* hb_hooks() const noexcept { return hb_; }

  /// Used by the detached-task driver; not for general use.
  void record_detached_exception(std::exception_ptr e) noexcept;
  void root_finished(std::uint64_t id) noexcept { roots_.erase(id); }

 private:
  static constexpr std::size_t kWheelMask = kWheelSpan - 1;
  static constexpr std::size_t kNoBucket = ~std::size_t{0};
  static constexpr SimTime kNoTime = ~SimTime{0};

  /// Hierarchical occupancy bitmap over the wheel: find-next-set-bit in a
  /// handful of word operations regardless of how sparse the timeline is.
  class Occupancy {
   public:
    static constexpr std::size_t npos = ~std::size_t{0};

    void set(std::size_t i) noexcept {
      l0_[i >> 6] |= bit(i & 63);
      l1_[i >> 12] |= bit((i >> 6) & 63);
      l2_ |= bit(i >> 12);
    }
    void clear(std::size_t i) noexcept {
      const std::size_t w = i >> 6;
      if ((l0_[w] &= ~bit(i & 63)) == 0) {
        const std::size_t g = w >> 6;
        if ((l1_[g] &= ~bit(w & 63)) == 0) l2_ &= ~bit(g);
      }
    }
    /// Lowest set index >= start, or npos.
    [[nodiscard]] std::size_t find_from(std::size_t start) const noexcept {
      const std::size_t w0 = start >> 6;
      if (const std::uint64_t word = l0_[w0] & (~std::uint64_t{0}
                                                << (start & 63))) {
        return (w0 << 6) + static_cast<std::size_t>(std::countr_zero(word));
      }
      const std::size_t g0 = w0 >> 6;
      if (const std::uint64_t gw = l1_[g0] & bits_above(w0 & 63)) {
        const std::size_t w =
            (g0 << 6) + static_cast<std::size_t>(std::countr_zero(gw));
        return (w << 6) + static_cast<std::size_t>(std::countr_zero(l0_[w]));
      }
      if (const std::uint64_t top = l2_ & bits_above(g0)) {
        const std::size_t g = static_cast<std::size_t>(std::countr_zero(top));
        const std::size_t w =
            (g << 6) + static_cast<std::size_t>(std::countr_zero(l1_[g]));
        return (w << 6) + static_cast<std::size_t>(std::countr_zero(l0_[w]));
      }
      return npos;
    }
    /// Lowest set index in cyclic order starting from `start`, or npos.
    [[nodiscard]] std::size_t find_wrapped(std::size_t start) const noexcept {
      const std::size_t i = find_from(start);
      if (i != npos || start == 0) return i;
      return find_from(0);
    }

   private:
    static constexpr std::uint64_t bit(std::size_t b) noexcept {
      return std::uint64_t{1} << b;
    }
    /// Bits strictly above position b (empty mask for b == 63).
    static constexpr std::uint64_t bits_above(std::size_t b) noexcept {
      return b >= 63 ? 0 : ~std::uint64_t{0} << (b + 1);
    }

    std::array<std::uint64_t, kWheelSpan / 64> l0_{};
    std::array<std::uint64_t, kWheelSpan / 4096> l1_{};
    std::uint64_t l2_ = 0;
  };

  void enqueue(Event&& e);
  bool step_one();
  /// Timestamp of the next event (kNoTime if none). Closes an exhausted
  /// active bucket as a side effect, hence non-const.
  SimTime peek_time();
  void close_active_bucket();
  Event pop_far();
  void sift_up_far(std::size_t i);
  void dispatch(Event& e);
  /// Fire every clock-watch boundary <= limit, earliest first.
  void fire_watches(SimTime limit);
  void maybe_rethrow();

  struct ClockWatch {
    SimTime next;  ///< next boundary to fire
    SimDuration period;
    std::shared_ptr<const bool> alive;
    std::function<void(SimTime)> tick;
  };

  std::vector<std::vector<Event>> wheel_;  ///< one bucket per ns of horizon
  Occupancy occupancy_;
  std::vector<Event> far_;  ///< 4-ary min-heap on (time, seq)
  std::size_t pending_ = 0;
  std::size_t active_bucket_ = kNoBucket;  ///< bucket being drained
  std::size_t active_cursor_ = 0;          ///< next event within it

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_root_id_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t fast_path_ = 0;
  std::uint64_t heap_fallback_ = 0;
  std::uint64_t dispatch_hash_ = 0xcbf29ce484222325ull;  // FNV-1a offset
  std::unordered_map<std::uint64_t, std::coroutine_handle<>> roots_;
  std::exception_ptr pending_exception_;
  HbHooks* hb_ = nullptr;
  Context ctx_{};
  std::vector<ClockWatch> watches_;
  /// Earliest boundary of any watch; kNoTime (never due) without watches,
  /// so an unwatched dispatch pays one compare.
  SimTime next_watch_ = kNoTime;
};

/// Awaitable that suspends the current coroutine for `d` virtual ns.
/// `co_await delay(sim, 0)` yields to other events already due now. The
/// resumption event carries the context the coroutine suspended in.
struct DelayAwaiter {
  Simulator& sim;
  SimDuration duration;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    sim.schedule_after(duration, h);
  }
  void await_resume() const noexcept {}
};

inline DelayAwaiter delay(Simulator& sim, SimDuration d) { return {sim, d}; }

}  // namespace efac::sim
