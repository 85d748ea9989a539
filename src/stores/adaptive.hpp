// Adaptive hybrid read: a speculative pair READ predicted by a per-client
// durable-offset record, and a hedged locate RPC (docs/ADAPTIVE_READ.md).
//
// The plain hybrid read pays two serial round trips on its fast path (the
// index entry, then the object it points at) and, when the durability flag
// turns out unset, a third and fourth for the RPC fallback. Under a
// write-heavy Zipfian mix hot keys keep landing inside eFactory's
// not-yet-durable window, which pushed the hybrid read below the w/o-hr
// baseline (EXPERIMENTS.md Fig. 9(c)). Two client mechanisms fix it:
//
//   * the SPECULATIVE PAIR READ: the record below remembers, per key
//     bucket, the offset this client last saw durable. When it knows one,
//     the GET READs the entry and the object at that offset in one
//     doorbelled round trip, and the entry adjudicates the prediction;
//
//   * the HEDGED GET: the fallback locate RPC departs with the optimistic
//     attempt and is abandoned unread when the attempt lands.
//
// The record is pure client CPU: updating and consulting it never
// schedules simulator events and never draws from any RNG. With
// AdaptiveReadOptions::enabled == false (the default) no state exists,
// and dispatch schedules are bit-identical to the non-adaptive client
// (pinned by determinism_test).
//
// Sharded clusters get per-shard state for free: ShardedKvClient holds one
// protocol client per shard and each protocol client owns its own record.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "metrics/metrics.hpp"

namespace efac::stores {

/// The adaptive hybrid-read switch. Lives in ClientOptions; only
/// eFactory's hybrid GET consults it (other systems ignore the struct).
struct AdaptiveReadOptions {
  /// Off = bit-identical to the non-adaptive read path.
  bool enabled = false;
};

/// Per-client adaptive-read state: the durable-offset record plus the
/// `read.adaptive.*` counters. Constructed only when the feature is
/// enabled, so disabled clients export byte-identical metrics. All methods
/// are O(1), allocation-free after construction, and deterministic (no
/// RNG, no simulator interaction).
class AdaptiveReadState {
 public:
  explicit AdaptiveReadState(metrics::MetricsRegistry& r)
      : spec_pairs_(r.counter("read.adaptive.spec_pairs")),
        spec_hits_(r.counter("read.adaptive.spec_hits")),
        hedges_(r.counter("read.adaptive.hedges")),
        hedges_wasted_(r.counter("read.adaptive.hedges_wasted")),
        slots_(kBuckets) {
    // Nothing increments these two. They stay registered because the
    // repository benchmark reports rpc_first_ratio and stale_skip_ratio
    // from them.
    r.counter("read.adaptive.rpc_first");
    r.counter("read.adaptive.stale_skips");
  }

  /// The offset this client last saw durable for `key_hash`, or 0 if none
  /// is recorded (cold bucket, or the record belongs to a colliding key).
  /// This is the prediction behind the speculative pair READ.
  [[nodiscard]] MemOffset predicted_off(
      std::uint64_t key_hash) const noexcept {
    const Slot& s = slots_[index(key_hash)];
    return s.key_hash == key_hash ? s.off : 0;
  }

  /// The version of `key_hash` at `off` is durable: a one-sided read found
  /// its flag set (or a conclusive tombstone), or a locate reply handed it
  /// out (the server verifies on demand before it answers). A colliding
  /// key takes the bucket over: latest observation wins.
  void note_durable(std::uint64_t key_hash, MemOffset off) noexcept {
    slots_[index(key_hash)] = Slot{key_hash, off};
  }

  /// A speculative pair READ was issued; `held` says whether the entry
  /// confirmed the predicted offset (the object snapshot was usable).
  void note_spec_pair(bool held) {
    ++spec_pairs_;
    if (held) ++spec_hits_;
  }

  /// A locate RPC was raced against an optimistic attempt; `wasted` says
  /// the attempt landed and the response was abandoned unread.
  void note_hedge(bool wasted) {
    ++hedges_;
    if (wasted) ++hedges_wasted_;
  }

 private:
  /// Record width (a power of two) and the seed of its key-to-bucket hash.
  static constexpr std::size_t kBuckets = 8192;
  static constexpr std::uint64_t kHashSeed = 0xADA9;

  struct Slot {
    std::uint64_t key_hash = 0;  ///< key the offset is for
    MemOffset off = 0;           ///< last version seen durable (0 = none)
  };

  [[nodiscard]] static std::size_t index(std::uint64_t key_hash) noexcept {
    std::uint64_t x = key_hash ^ kHashSeed;
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 33;
    return x & (kBuckets - 1);
  }

  metrics::Counter& spec_pairs_;     ///< speculative entry+object pair READs
  metrics::Counter& spec_hits_;      ///< pairs where the prediction held
  metrics::Counter& hedges_;         ///< locate RPCs raced against attempts
  metrics::Counter& hedges_wasted_;  ///< hedges abandoned (the attempt held)
  std::vector<Slot> slots_;
};

}  // namespace efac::stores
