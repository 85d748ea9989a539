#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

namespace efac::sim {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Strict-weak order on the far heap: earliest (time, seq) at the root.
bool event_less(const Event& a, const Event& b) noexcept {
  if (a.time() != b.time()) return a.time() < b.time();
  return a.seq() < b.seq();
}

/// Eager, self-destroying coroutine used to drive a detached Task<void>.
/// Suspends at the start so the Simulator can register the root frame
/// before any user code runs (avoiding a register/finish race).
struct DetachedDriver {
  struct promise_type {
    DetachedDriver get_return_object() noexcept {
      return {std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      // The driver body catches everything; anything reaching here is a
      // bug in the driver itself.
      std::terminate();
    }
  };
  std::coroutine_handle<promise_type> handle;
};

DetachedDriver drive(Simulator& sim, Task<void> task, std::uint64_t id) {
  try {
    co_await std::move(task);
  } catch (...) {
    sim.record_detached_exception(std::current_exception());
  }
  sim.root_finished(id);
}

}  // namespace

Simulator::Simulator() : wheel_(kWheelSpan) {}

Simulator::~Simulator() {
  // Drop the queued events first: their handles point into frames owned
  // (directly or transitively) by the root frames below, and become
  // dangling once those are destroyed.
  for (std::vector<Event>& bucket : wheel_) bucket.clear();
  far_.clear();
  for (auto& [id, handle] : roots_) {
    handle.destroy();  // recursively destroys children via Task destructors
  }
  roots_.clear();
}

void Simulator::enqueue(Event&& e) {
  ++pending_;
  if (e.time() - now_ < kWheelSpan) {
    // One bucket == one instant within the horizon, so appending keeps the
    // bucket in (time, seq) order by construction.
    const std::size_t idx = static_cast<std::size_t>(e.time()) & kWheelMask;
    wheel_[idx].push_back(std::move(e));
    occupancy_.set(idx);
  } else {
    far_.push_back(std::move(e));
    sift_up_far(far_.size() - 1);
  }
}

void Simulator::sift_up_far(std::size_t i) {
  Event e = std::move(far_[i]);
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!event_less(e, far_[parent])) break;
    far_[i] = std::move(far_[parent]);
    i = parent;
  }
  far_[i] = std::move(e);
}

Event Simulator::pop_far() {
  Event out = std::move(far_.front());
  Event last = std::move(far_.back());
  far_.pop_back();
  if (!far_.empty()) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = (i << 2) + 1;
      if (first >= far_.size()) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + 4, far_.size());
      for (std::size_t c = first + 1; c < end; ++c) {
        if (event_less(far_[c], far_[best])) best = c;
      }
      if (!event_less(far_[best], last)) break;
      far_[i] = std::move(far_[best]);
      i = best;
    }
    far_[i] = std::move(last);
  }
  return out;
}

void Simulator::close_active_bucket() {
  wheel_[active_bucket_].clear();  // keeps capacity for reuse
  occupancy_.clear(active_bucket_);
  active_bucket_ = kNoBucket;
}

SimTime Simulator::peek_time() {
  if (active_bucket_ != kNoBucket) {
    // The active bucket holds events at exactly now_ (the instant being
    // drained); the far heap cannot hold anything earlier or equal (see
    // step_one's heap-first rule).
    if (active_cursor_ < wheel_[active_bucket_].size()) return now_;
    close_active_bucket();
  }
  const std::size_t start = static_cast<std::size_t>(now_) & kWheelMask;
  const std::size_t idx = occupancy_.find_wrapped(start);
  SimTime bucket_time = kNoTime;
  if (idx != Occupancy::npos) {
    bucket_time = now_ + static_cast<SimTime>((idx - start) & kWheelMask);
  }
  if (!far_.empty() && far_.front().time() < bucket_time) {
    return far_.front().time();
  }
  return bucket_time;
}

void Simulator::spawn(Task<void> task) {
  EFAC_CHECK_MSG(task.valid(), "spawning an empty task");
  const std::uint64_t id = next_root_id_++;
  DetachedDriver driver = drive(*this, std::move(task), id);
  roots_.emplace(id, driver.handle);
  driver.handle.resume();  // run until first suspension (or completion)
  maybe_rethrow();
}

void Simulator::record_detached_exception(std::exception_ptr e) noexcept {
  if (!pending_exception_) pending_exception_ = e;
}

void Simulator::maybe_rethrow() {
  if (pending_exception_) {
    std::exception_ptr e = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(e);
  }
}

void Simulator::watch_clock(SimDuration period,
                            std::shared_ptr<const bool> alive,
                            std::function<void(SimTime)> tick) {
  EFAC_CHECK_MSG(period > 0, "a clock watch needs a positive period");
  EFAC_CHECK(alive != nullptr && tick);
  watches_.push_back(
      ClockWatch{now_ + period, period, std::move(alive), std::move(tick)});
  next_watch_ = std::min(next_watch_, now_ + period);
}

void Simulator::fire_watches(SimTime limit) {
  const std::uint64_t seq = next_seq_;
  for (;;) {
    std::erase_if(watches_, [](const ClockWatch& w) { return !*w.alive; });
    // min_element keeps the first of equal boundaries: registration order.
    const auto due = std::min_element(
        watches_.begin(), watches_.end(),
        [](const ClockWatch& a, const ClockWatch& b) {
          return a.next < b.next;
        });
    next_watch_ = due == watches_.end() ? kNoTime : due->next;
    if (next_watch_ > limit) break;
    due->next += due->period;
    due->tick(next_watch_);
  }
  EFAC_CHECK_MSG(next_seq_ == seq, "a clock watch scheduled an event");
}

void Simulator::dispatch(Event& e) {
  if (e.time() > next_watch_) fire_watches(e.time() - 1);
  now_ = e.time();
  ++events_processed_;
  --pending_;
  dispatch_hash_ = (dispatch_hash_ ^ e.time()) * kFnvPrime;
  dispatch_hash_ = (dispatch_hash_ ^ e.seq()) * kFnvPrime;
  ctx_ = e.context();
  e.fire();
}

bool Simulator::step_one() {
  // Fast path: keep draining the bucket for the current instant. Events
  // appended to it during dispatch (delay(0), sync wake-ups) are picked up
  // by the cursor; re-index every access because the vector may grow.
  if (active_bucket_ != kNoBucket) {
    if (active_cursor_ < wheel_[active_bucket_].size()) {
      Event e = std::move(wheel_[active_bucket_][active_cursor_++]);
      ++fast_path_;
      dispatch(e);
      return true;
    }
    close_active_bucket();
  }

  const std::size_t start = static_cast<std::size_t>(now_) & kWheelMask;
  const std::size_t idx = occupancy_.find_wrapped(start);
  SimTime bucket_time = kNoTime;
  if (idx != Occupancy::npos) {
    bucket_time = now_ + static_cast<SimTime>((idx - start) & kWheelMask);
  }

  // Heap-first at ties: a far event at time T was scheduled while
  // T - now >= kWheelSpan, i.e. strictly before any wheel event at T could
  // be scheduled, so its sequence number is smaller.
  if (!far_.empty() && far_.front().time() <= bucket_time) {
    Event e = pop_far();
    ++heap_fallback_;
    dispatch(e);
    return true;
  }
  if (bucket_time == kNoTime) return false;

  active_bucket_ = idx;
  active_cursor_ = 1;
  Event e = std::move(wheel_[idx].front());
  ++fast_path_;
  dispatch(e);
  return true;
}

bool Simulator::step() {
  if (!step_one()) return false;
  maybe_rethrow();
  return true;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t Simulator::run_until(SimTime deadline) {
  EFAC_CHECK_MSG(deadline >= now_, "run_until into the past");
  std::size_t n = 0;
  for (;;) {
    const SimTime t = peek_time();
    if (t == kNoTime || t > deadline) break;
    step_one();
    maybe_rethrow();
    ++n;
  }
  if (deadline >= next_watch_) fire_watches(deadline);
  now_ = deadline;
  return n;
}

}  // namespace efac::sim
