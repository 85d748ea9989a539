// Flight recorder: a bounded ring of typed lifecycle events on the
// simulator clock.
//
// Design rules (they are what make the recorder safe to leave compiled
// into every path):
//   * Emission never schedules simulator events and never draws from any
//     RNG — it only reads sim.now() and appends to a preallocated ring —
//     so the DES schedule (and dispatch hash) is bit-identical whether
//     recording is on or off.
//   * With recording disabled no EventLog exists and each emission site
//     costs exactly one branch on a null pointer (the analysis-checker
//     pattern).
//   * Events are 32-byte PODs; the meaning of the a/b payload words is
//     per-type (see EventType). Causal joins (RPC issue→deliver, object
//     bind→durability flag) are reconstructed by the exporters from the
//     payload words, so the hot path never threads IDs across components.
//
// Actors (server, verifier, cleaner, fault injector, each client) hold a
// Recorder — a {log, track, op-scoped} triple — by value; components that
// serve many actors (QueuePair, rpc::Connection) borrow a pointer to their
// owner's Recorder so per-op attribution follows the owner automatically.
// A client track takes its op from the simulator's run context, which
// every event carries; the other tracks carry op 0.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace efac::trace {

enum class EventType : std::uint8_t {
  kOpBegin = 0,   ///< client op starts; aux=OpKind
  kOpEnd,         ///< client op finishes; aux=OpKind, a=status code
  kRpcIssue,      ///< client posts an RPC; a=call_id, b=qp_id, aux=opcode
  kRpcDeliver,    ///< server worker picks a request up; a=call_id, b=src_qp,
                  ///< aux=opcode
  kQpVerb,        ///< one-sided verb posted; aux=Verb, a=completion time
                  ///< (virtual ns, known analytically at post time), b=bytes
  kVerifyScan,    ///< verifier pops an object; a=object off, b=queue depth
  kVerifyFlush,   ///< verifier flushed an object; a=object off, b=bytes
  kFlagSet,       ///< durability flag set; a=object off
  kVerifyTimeout, ///< verifier invalidated a timed-out object; a=object off
  kGcCopy,        ///< cleaner migrated an object; a=old off, b=new off
  kGcSwitch,      ///< cleaning stage transition; aux=stage code
  kRetry,         ///< client retry wrapper re-issues; a=attempt, b=status
  kBackoff,       ///< client backs off; a=delay ns, b=attempt
  kFault,         ///< fault injector fired; aux=site, a=occurrence index
  kGetPath,       ///< GET path resolution; aux=GetPath
  kObjBind,       ///< client learned its op's object offset; a=object off
  kCount
};

/// Names indexed by EventType.
extern const char* const kEventNames[static_cast<std::size_t>(
    EventType::kCount)];

enum class OpKind : std::uint8_t { kPut = 0, kGet, kDel };
extern const char* const kOpKindNames[3];

/// One-sided verb codes for kQpVerb.aux.
enum class Verb : std::uint8_t {
  kRead = 0,
  kWrite,
  kWriteImm,
  kSend,
  kCas,
  kFetchAdd,
  kCommit,
  kWriteFaulted,  ///< fault-extended WRITE (timeout window)
  kVerbCount
};
extern const char* const kVerbNames[static_cast<std::size_t>(
    Verb::kVerbCount)];

/// GET path resolution codes for kGetPath.aux.
enum class GetPath : std::uint8_t {
  kFastOneSided = 0,   ///< pure one-sided read succeeded
  kRpcOnlyMode,        ///< client configured/forced onto the RPC path
  kCleaningActive,     ///< hybrid fallback: server is log-cleaning
  kFlagUnset,          ///< durability flag not yet set → RPC fallback
  kEntryMiss,          ///< index entry missing/stale → RPC fallback
  kReadError,          ///< one-sided read failed → RPC fallback
  kPathCount
};
extern const char* const kGetPathNames[static_cast<std::size_t>(
    GetPath::kPathCount)];

/// 32-byte POD record. Timestamps are virtual nanoseconds.
struct Event {
  std::uint64_t t = 0;    ///< emission time (sim.now())
  std::uint64_t a = 0;    ///< per-type payload (see EventType)
  std::uint64_t b = 0;    ///< per-type payload
  std::uint32_t op = 0;   ///< causal op id (0 = not op-scoped)
  std::uint16_t track = 0;
  std::uint8_t type = 0;  ///< EventType
  std::uint8_t aux = 0;   ///< per-type small payload

  friend bool operator==(const Event&, const Event&) = default;
};
static_assert(sizeof(Event) == 32, "Event must stay a 32-byte POD");

/// Bounded ring of events plus the track-name table. One per store; every
/// actor in the cluster (server workers, verifier, cleaner, injector,
/// clients) appends to the same log so the exporters see a global order.
class EventLog {
 public:
  /// Ring capacity in events (32 bytes each). Once full, each new event
  /// overwrites the oldest; the drop count is kept for the exporters.
  static constexpr std::size_t kCapacity = 1u << 15;

  /// `actor_prefix` is prepended to every registered track name (empty =
  /// names unchanged); sharded clusters pass "s<shard>/" so tracks from
  /// different shards stay distinguishable when snapshots are merged.
  explicit EventLog(sim::Simulator& sim, std::string actor_prefix = {});

  /// Register an actor track; returns its id. Registration order is
  /// deterministic (construction order), which keeps exports stable.
  std::uint16_t register_track(std::string name);

  /// Append one event at the current virtual time. Never schedules,
  /// never allocates once the ring is warm.
  void emit(std::uint16_t track, std::uint32_t op, EventType type,
            std::uint8_t aux, std::uint64_t a = 0, std::uint64_t b = 0);

  /// Allocate a fresh causal op id (monotonic, never 0).
  [[nodiscard]] std::uint32_t next_op_id() noexcept { return ++last_op_; }

  /// Publish `op` as the op of the simulator's run context, with this log
  /// as its domain. Every event carries the context it was scheduled in,
  /// which is what keeps per-op attribution correct when a client has
  /// several ops in flight.
  void set_context_op(std::uint32_t op) noexcept { sim_.set_op(this, op); }
  /// The context's op if it belongs to this log, else 0 (another shard's
  /// op must not leak onto this log's tracks).
  [[nodiscard]] std::uint32_t context_op() const noexcept {
    const sim::Context& ctx = sim_.context();
    return ctx.domain == this ? ctx.op : 0;
  }

  [[nodiscard]] std::uint64_t total_emitted() const noexcept {
    return total_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return total_ > kCapacity ? total_ - kCapacity : 0;
  }
  [[nodiscard]] const std::vector<std::string>& tracks() const noexcept {
    return tracks_;
  }

  /// Point-in-time copy for export: events in emission order (ring
  /// unwrapped), track names, and the drop count.
  struct Snapshot {
    std::string label;
    std::vector<std::string> tracks;
    std::uint64_t dropped = 0;
    std::vector<Event> events;

    friend bool operator==(const Snapshot&, const Snapshot&) = default;
  };
  [[nodiscard]] Snapshot snapshot(std::string label = {}) const;

 private:
  sim::Simulator& sim_;
  std::vector<Event> ring_;  ///< reserve(kCapacity) up front
  std::string actor_prefix_;
  std::vector<std::string> tracks_;
  std::uint64_t total_ = 0;
  std::uint32_t last_op_ = 0;
};

/// A {log, track, op-scoped} triple held by value in each actor. attach()
/// is idempotent-safe to skip: with a null log every emit() is one branch.
struct Recorder {
  EventLog* log = nullptr;
  std::uint16_t track = 0;
  /// Client recorders set this: op attribution reads the simulator's run
  /// context, so a client with several async ops in flight attributes each
  /// verb/RPC/retry event to the op whose coroutine is actually running —
  /// not to whichever op began most recently. Actor tracks leave it false,
  /// emit op 0 and never read the context (a verifier spawned from harness
  /// code would otherwise inherit the last event's op).
  bool op_scoped = false;

  void attach(EventLog* l, std::string name) {
    if (l == nullptr) return;
    log = l;
    track = l->register_track(std::move(name));
  }
  [[nodiscard]] bool enabled() const noexcept { return log != nullptr; }

  /// The op id emissions are attributed to right now.
  [[nodiscard]] std::uint32_t current_op() const noexcept {
    return op_scoped && log != nullptr ? log->context_op() : 0;
  }

  void emit(EventType type, std::uint8_t aux = 0, std::uint64_t a = 0,
            std::uint64_t b = 0) const {
    if (log != nullptr) log->emit(track, current_op(), type, aux, a, b);
  }
  /// Start a new causally-tracked op; subsequent emissions (including the
  /// ones borrowed through QueuePair/Connection) carry its id.
  void begin_op(OpKind kind) {
    if (log == nullptr) return;
    const std::uint32_t op = log->next_op_id();
    if (op_scoped) log->set_context_op(op);
    log->emit(track, op, EventType::kOpBegin,
              static_cast<std::uint8_t>(kind));
  }
  void end_op(OpKind kind, std::uint64_t status_code) {
    if (log == nullptr) return;
    log->emit(track, current_op(), EventType::kOpEnd,
              static_cast<std::uint8_t>(kind), status_code);
    if (op_scoped) log->set_context_op(0);
  }

  /// Batched submissions manage op ids explicitly: begin_op_id() allocates
  /// and announces an op WITHOUT re-pointing current attribution — the
  /// caller chooses which member op owns the batch's shared verbs via
  /// set_current(), and closes each member with end_op_id().
  [[nodiscard]] std::uint32_t begin_op_id(OpKind kind) {
    if (log == nullptr) return 0;
    const std::uint32_t id = log->next_op_id();
    log->emit(track, id, EventType::kOpBegin,
              static_cast<std::uint8_t>(kind));
    return id;
  }
  void set_current(std::uint32_t op) {
    if (op_scoped && log != nullptr) log->set_context_op(op);
  }
  void end_op_id(std::uint32_t op, OpKind kind, std::uint64_t status_code) {
    if (log == nullptr) return;
    log->emit(track, op, EventType::kOpEnd,
              static_cast<std::uint8_t>(kind), status_code);
  }
};

}  // namespace efac::trace
