// Configuration for the virtual-time telemetry sampler.
//
// Kept in its own tiny header (mirroring trace/options.hpp) so StoreConfig
// can embed it without pulling the sampler implementation into every
// translation unit that sizes a store.
#pragma once

#include <string>

namespace efac::metrics {

/// Options for the per-store telemetry sampler (see metrics/telemetry.hpp
/// and docs/OBSERVABILITY.md). Disabled by default: no sampler object is
/// created, no simulator event is registered, and schedules stay
/// bit-identical to a build without the subsystem.
struct TelemetryOptions {
  /// Master switch. When false the store keeps a null sampler pointer and
  /// every probe site reduces to one branch.
  bool enabled = false;

  /// Prefix applied to every series name (sharded clusters use "s<i>/" so
  /// per-shard timelines stay distinguishable after aggregation).
  std::string series_prefix;
};

}  // namespace efac::metrics
