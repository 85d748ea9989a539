// Knobs for the virtual-time conflict sanitizer (see docs/ANALYSIS.md).
//
// Kept in its own tiny header so stores/config.hpp can embed the options
// without pulling the checker implementation into every translation unit.
#pragma once

namespace efac::analysis {

/// Configuration of the happens-before race / durability-lint checker.
/// Disabled by default: with `enabled == false` no Checker is constructed
/// and every hook in the simulator, arena and sync primitives reduces to a
/// single pointer test (same pattern as efac::fault).
struct AnalysisOptions {
  /// Master switch: attach a Checker to the cluster and shadow-track every
  /// arena access.
  bool enabled = false;
  /// Suppress the durability lint. Fault plans that legitimately compromise
  /// durability (dropped/deferred persists, torn writes surviving to a
  /// flag-set) would otherwise trip it; the race rules stay active.
  bool allow_unflushed_durability = false;
};

}  // namespace efac::analysis
