// Happens-before instrumentation interface.
//
// The conflict sanitizer (efac::analysis::Checker) needs two things from
// the simulation core: to know which *actor* the currently-executing event
// belongs to — the actor of the simulator's run context, which every event
// carries (Simulator::context()) — and to see a release/acquire edge
// whenever a sync primitive hands control (and therefore memory
// visibility) from one actor to another. This header defines the abstract
// hook interface for the edges so that sim/ never depends on analysis/ —
// the checker implements HbHooks and attaches itself via
// Simulator::set_hb_hooks().
//
// Actor id 0 is reserved for "untracked" contexts (the test harness, bench
// drivers): accesses made under actor 0 are invisible to the checker, so
// oracle reads never count as races.
#pragma once

#include <cstdint>
#include <vector>

namespace efac::sim {

/// A vector clock: index = actor id, value = the latest epoch of that
/// actor known to the clock's owner. Missing entries mean epoch 0
/// ("nothing from that actor observed yet").
using VectorClock = std::vector<std::uint64_t>;

/// Hooks the sync primitives call when a conflict checker is attached.
/// Both are branch-guarded at the call sites (`if (hb != nullptr)`), so a
/// run without a checker pays one pointer test per hand-off and nothing
/// else.
class HbHooks {
 public:
  virtual ~HbHooks() = default;

  /// Release half of a release/acquire pair: merge the current actor's
  /// clock into `into`, then advance the actor's own epoch so later writes
  /// are not covered by this edge.
  virtual void release(VectorClock& into) = 0;

  /// Acquire half: merge `from` into the current actor's clock.
  virtual void acquire(const VectorClock& from) = 0;
};

}  // namespace efac::sim
