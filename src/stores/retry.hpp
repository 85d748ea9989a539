// Client-side retry policy: timeout, capped exponential backoff with
// seeded jitter, and a per-operation attempt budget.
//
// The policy lives in ClientOptions; KvClient's public put/get/del wrap
// the system-specific *_attempt coroutines in a uniform retry loop. With
// the default policy (one attempt, no RPC timeout) the loop is a plain
// pass-through: no RNG draws, no delays, bit-identical schedules.
//
// Interaction with the hybrid read path: an eFactory GET whose one-sided
// read finds the durability flag unset does NOT surface kUnavailable to
// this retry loop — the attempt falls back to the RPC path *inside*
// get_attempt (finishing its hedged locate RPC when the adaptive read is
// on, stores/adaptive.hpp) and usually succeeds, so the engine sees one
// clean attempt. kUnavailable still reaches this loop (and is still
// retryable) when the RPC fallback itself fails, e.g. under fault plans.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace efac::stores {

struct RetryPolicy {
  /// Total tries per operation (1 = no retries).
  int max_attempts = 1;
  /// Per-RPC give-up window threaded into Connection::call_timeout and the
  /// IMM ack hub (0 = wait forever; required > 0 under lossy fault plans).
  SimDuration rpc_timeout_ns = 0;
  /// Backoff before attempt k+1 is min(base * 2^(k-1), cap), scaled by a
  /// jitter factor drawn uniformly from [1 - jitter, 1 + jitter].
  SimDuration backoff_base_ns = 2 * timeconst::kMicrosecond;
  SimDuration backoff_cap_ns = 200 * timeconst::kMicrosecond;
  double jitter = 0.1;
  /// Seed for the per-client jitter stream (forked per client in KvClient).
  std::uint64_t seed = 0xB0FF;

  [[nodiscard]] bool enabled() const noexcept { return max_attempts > 1; }

  /// Transient codes worth another attempt. Everything else (kNotFound,
  /// kCorrupt, kOutOfSpace, ...) is surfaced to the caller unchanged.
  [[nodiscard]] static bool retryable(StatusCode code) noexcept {
    return code == StatusCode::kTimeout || code == StatusCode::kUnavailable;
  }

  /// Backoff before the (attempt+1)-th try; `attempt` counts from 1.
  /// Draws exactly one jitter value from `rng` when jitter > 0.
  [[nodiscard]] SimDuration backoff(int attempt, Rng& rng) const {
    const int shift = std::clamp(attempt - 1, 0, 40);
    SimDuration d = backoff_base_ns << shift;
    if (d <= 0 || d > backoff_cap_ns) d = backoff_cap_ns;
    if (jitter > 0.0) {
      const double scale = 1.0 - jitter + 2.0 * jitter * rng.next_double();
      d = static_cast<SimDuration>(static_cast<double>(d) * scale);
    }
    return std::max<SimDuration>(d, 0);
  }
};

}  // namespace efac::stores
