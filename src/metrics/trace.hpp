// Virtual-time span tracing on the simulator clock.
//
// A Tracer binds a simulator (the clock) to a MetricsRegistry (the sink).
// Each span name maps to a histogram named "span.<name>" in the registry,
// so phase breakdowns (Fig. 2) fall out of the same export path as every
// other metric. Spans measure SIMULATED nanoseconds — sim.now() at open
// vs. close — never wall time.
//
// Two recording forms:
//
//   metrics::Span s{tracer_, "put.alloc_rpc"};   // RAII, or s.finish()
//   tracer_.record("server.get_crc", duration);  // direct, for known costs
//
// TRACE_SPAN(tracer, "name") declares an anonymous RAII span for a whole
// lexical scope. Spans are coroutine-safe: a span held across co_await
// lives in the coroutine frame and closes at the virtual instant the frame
// reaches its destructor. Crucially this includes ABANDONED frames — an
// actor suspended forever (e.g. a client loop cut short by an injected
// crash) is destroyed by the Simulator's destructor, usually after the
// span's Tracer (and its registry) are already gone. Spans therefore hold
// the tracer's state through a shared_ptr whose `alive` flag the Tracer
// clears on destruction: closing a span after its tracer died is a no-op,
// not a use-after-free. Span names must outlive the span (use string
// literals).
#pragma once

#include <memory>
#include <string_view>

#include "common/types.hpp"
#include "metrics/metrics.hpp"
#include "sim/simulator.hpp"

namespace efac::metrics {

class Tracer {
 public:
  Tracer(sim::Simulator& sim, MetricsRegistry& registry)
      : state_(std::make_shared<State>(sim, registry)) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  ~Tracer() { state_->alive = false; }

  [[nodiscard]] sim::Simulator& simulator() const noexcept {
    return state_->sim;
  }
  [[nodiscard]] SimTime now() const noexcept { return state_->sim.now(); }

  /// Record a finished phase of `elapsed` virtual ns under "span.<name>".
  void record(std::string_view name, SimDuration elapsed);

 private:
  friend class Span;

  /// Shared with every open Span. `alive` goes false when the Tracer (and
  /// therefore the registry/client it points into) is destroyed.
  struct State {
    State(sim::Simulator& s, MetricsRegistry& r) noexcept
        : sim(s), registry(r) {}
    sim::Simulator& sim;
    MetricsRegistry& registry;
    bool alive = true;
  };

  static void record_into(State& state, std::string_view name,
                          SimDuration elapsed);

  std::shared_ptr<State> state_;
};

/// RAII phase marker. Opens at construction (captures sim.now()), records
/// on finish() or destruction. When the tracer has been destroyed,
/// closing is a no-op. Move-only; a moved-from span records nothing.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name) noexcept
      : state_(tracer.state_), name_(name), start_(tracer.now()) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept
      : state_(std::move(other.state_)),
        name_(other.name_),
        start_(other.start_) {
    other.state_ = nullptr;
  }
  Span& operator=(Span&&) = delete;

  ~Span() { finish(); }

  /// Close the span now (idempotent); later destruction records nothing.
  void finish() {
    if (state_ == nullptr) return;
    if (state_->alive) {
      Tracer::record_into(*state_, name_, state_->sim.now() - start_);
    }
    state_ = nullptr;
  }

  /// Abandon without recording (error paths that should not pollute the
  /// phase histogram).
  void cancel() noexcept { state_ = nullptr; }

 private:
  std::shared_ptr<Tracer::State> state_;
  std::string_view name_;
  SimTime start_;
};

}  // namespace efac::metrics

// Anonymous whole-scope span: TRACE_SPAN(tracer_, "put.total");
#define EFAC_TRACE_CONCAT_INNER(a, b) a##b
#define EFAC_TRACE_CONCAT(a, b) EFAC_TRACE_CONCAT_INNER(a, b)
#define TRACE_SPAN(tracer, name) \
  ::efac::metrics::Span EFAC_TRACE_CONCAT(efac_trace_span_, __LINE__) { \
    (tracer), (name)                                                    \
  }
