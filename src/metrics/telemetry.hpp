// Virtual-time telemetry: sampled instrument timelines.
//
// The registry (metrics.hpp) answers "how much, in total"; the flight
// recorder (trace/event_log.hpp) answers "what happened to THIS op". This
// module covers the middle granularity the paper's dynamics arguments live
// at: how the verifier backlog, retry rate, or hedge rate EVOLVED over a
// run. A TelemetrySampler puts a clock watch on the store's simulator and,
// at every period boundary the clock passes, snapshots a configured set of
// sources into fixed-capacity ring-buffered series:
//
//   * counter sources — registry Counter cells sampled as per-tick deltas
//     (a rate timeline; deltas are exact integers, so series are
//     bit-deterministic for a fixed seed);
//   * gauge probes    — callbacks polled for an instantaneous value
//     (queue depths, window occupancy, pool fill).
//
// Benches export the snapshots as TELEM_<figure>.json (schema
// efac.telemetry.v1).
//
// Determinism contract (same as the fault injector / sanitizer / flight
// recorder): disabled means no object and one branch per probe site.
// Enabled, the sampler only reads: a clock-watch tick is no simulator
// event and the sampler writes into no registry, so schedules, dispatch
// hashes and exported metrics are bit-identical with it on or off, and
// for a fixed seed the sampled series are themselves bit-reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "metrics/metrics.hpp"

namespace efac::sim {
class Simulator;
}  // namespace efac::sim

namespace efac::metrics {

/// How a series' points were produced (and how tools should label them).
enum class SeriesKind : std::uint8_t {
  kRate,   ///< per-tick counter deltas
  kGauge,  ///< instantaneous probe values
};

/// Point-in-time copy of a sampler's state; what benches serialize. The
/// defaulted operator== lets tests pin bit-determinism across runs.
struct TelemetrySnapshot {
  struct Series {
    std::string name;  ///< prefixed series name
    SeriesKind kind = SeriesKind::kRate;
    std::vector<double> points;  ///< most recent `samples - dropped` ticks

    friend bool operator==(const Series&, const Series&) = default;
  };

  std::string label;            ///< bench-assigned run label
  std::uint64_t period_ns = 0;  ///< sampling period
  std::uint64_t start_ns = 0;   ///< virtual time of the first RETAINED tick
  std::uint64_t samples = 0;    ///< total ticks taken (including dropped)
  std::uint64_t dropped = 0;    ///< ticks evicted from the rings
  std::vector<Series> series;

  friend bool operator==(const TelemetrySnapshot&,
                         const TelemetrySnapshot&) = default;
};

/// The sampler. One per store (created by StoreBase when
/// StoreConfig::telemetry.enabled); clients and subsystems register
/// sources against it through ClusterWiring, keyed by an owner token so a
/// shorter-lived component can withdraw its probes on destruction.
class TelemetrySampler {
 public:
  /// Owner token for source registration; any stable pointer identifying
  /// the registering component (conventionally `this`).
  using Owner = const void*;

  /// Virtual time between samples: a few hundred points across a
  /// typical bench measurement window.
  static constexpr SimDuration kPeriodNs = 2 * timeconst::kMicrosecond;

  /// Ring capacity per series: only the most recent kCapacity samples are
  /// retained; older points are dropped and accounted in dropped(). Large
  /// enough to hold every point of the Fig. 2 bench at kPeriodNs.
  static constexpr std::size_t kCapacity = 16384;

  /// Watches `sim`'s clock from now on: one sample per kPeriodNs
  /// boundary. `series_prefix` is prepended to every series name
  /// (sharded clusters pass "s<i>/"). The simulator may die first.
  explicit TelemetrySampler(sim::Simulator& sim,
                            std::string series_prefix = {});
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Register a counter cell to be sampled as a per-tick delta series.
  /// Multiple cells may feed one series (their deltas add), which is how
  /// per-client counters aggregate into one "client.retries" rate.
  void add_counter_source(Owner owner, std::string_view name,
                          const Counter& cell);

  /// Register an instantaneous probe; multiple probes on one series sum.
  void add_gauge_probe(Owner owner, std::string_view name,
                       std::function<double()> probe);

  /// Withdraw every source `owner` registered (series and their points
  /// remain; the sources just stop contributing). Components that can die
  /// before the store MUST call this from their destructor.
  void drop_sources(Owner owner);

  /// Take one sample for virtual time `at` (the clock watch passes each
  /// boundary; tests call this directly).
  void sample(SimTime at);

  [[nodiscard]] std::uint64_t samples_taken() const noexcept {
    return samples_;
  }
  /// Ticks whose points have been evicted from every ring.
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// Copy out the current series under a bench-chosen label.
  [[nodiscard]] TelemetrySnapshot snapshot(std::string label = {}) const;

 private:
  struct CounterSource {
    Owner owner;
    const Counter* cell;
    std::uint64_t last;  ///< value at the previous tick (delta baseline)
  };
  struct GaugeProbe {
    Owner owner;
    std::function<double()> probe;
  };
  struct SeriesState {
    std::string name;  ///< prefixed
    SeriesKind kind;
    std::deque<double> ring;
    std::vector<CounterSource> counters;
    std::vector<GaugeProbe> gauges;
  };

  SeriesState& series_for(std::string_view name, SeriesKind kind);

  std::string series_prefix_;

  // deque: SeriesState addresses stay stable as series are added.
  std::deque<SeriesState> series_;
  std::map<std::string, std::size_t, std::less<>> series_index_;
  std::uint64_t samples_ = 0;
  std::uint64_t first_tick_ns_ = 0;
  // Shared alive flag guarding the clock watch: the destructor clears it,
  // and the simulator drops the watch instead of calling a dead sampler.
  // Benches destroy the simulator first, so the destructor must not reach
  // into it.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// Serialize snapshots as an efac.telemetry.v1 document.
[[nodiscard]] std::string to_telemetry_json(
    const std::vector<TelemetrySnapshot>& snapshots, std::string_view figure);

/// Parse an efac.telemetry.v1 document back into snapshots (tooling:
/// trace_inspect timeline; tests round-trip through this).
[[nodiscard]] Expected<std::vector<TelemetrySnapshot>> parse_telemetry_json(
    std::string_view doc);

/// Validate a TELEM_*.json document against the schema. OK iff it parses.
[[nodiscard]] Status validate_telemetry_json(std::string_view doc);

}  // namespace efac::metrics
