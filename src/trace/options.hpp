// Flight-recorder knobs, embedded in StoreConfig (mirrors
// analysis::AnalysisOptions): a tiny standalone header so config.hpp does
// not pull in the event-log machinery.
#pragma once

#include <string>

namespace efac::trace {

struct TraceOptions {
  /// Off by default: no EventLog is created and every emission site
  /// reduces to one null-pointer test.
  bool enabled = false;
  /// Prepended to every actor track name registered on this store's
  /// EventLog ("s2/" turns "server" into "s2/server"). Sharded clusters
  /// set "s<shard>/" so each shard's actors stay distinguishable in
  /// merged exports; empty (the default, and always for single-shard
  /// clusters) leaves names byte-identical to pre-sharding traces.
  std::string actor_prefix;
};

}  // namespace efac::trace
