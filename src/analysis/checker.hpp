// Virtual-time conflict sanitizer over the simulated NVM fabric.
//
// The Checker is a TSan-style happens-before race detector plus a
// durability lint, specialized to the simulation's memory model:
//
//   * Every byte of the arena carries shadow state: the last write access
//     (actor, epoch, virtual interval — DMA payloads occupy [post, arrive])
//     and the last read access per byte.
//   * Actors are *clock domains*, not coroutines. All server-side
//     coroutines (workers, background verifier, log cleaner, recovery)
//     share one "server" actor: the cooperative DES scheduler is real
//     synchronization between them, and the conflicts the paper cares
//     about are cross-domain — client DMA vs server CPU, client vs client.
//   * Vector clocks flow through the sync primitives (OneShot / Gate /
//     Semaphore / Channel), which covers RPC request/response delivery and
//     QP completion hand-off for free (see docs/ANALYSIS.md).
//
// Every overlapping access pair is classified:
//
//   ordered    same actor, or connected by a happens-before path;
//   guarded    conflicting, but at least one side carries a protocol
//              annotation (CRC verify, durability-flag check, metadata
//              revalidation, 8-byte atomic word, declared-racy update) —
//              the tolerated races that motivate the paper's design;
//   unguarded  a hard error, reported with both actors, sites and virtual
//              timestamps.
//
// The durability lint is independent of ordering: assert_durable() at any
// point that exposes bytes as durable (returning a durability hit to a
// client, acking a persist) fails if the range is still volatile — either
// unflushed past the volatility boundary (tracked at 8-byte-word
// precision, finer than the arena's cache-line dirty bits, because the
// flag word intentionally shares a line with flushed payload bytes) or
// still in flight as DMA.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/options.hpp"
#include "common/types.hpp"
#include "metrics/metrics.hpp"
#include "sim/hb.hpp"
#include "sim/simulator.hpp"

namespace efac::analysis {

/// Protocol mechanism that makes a conflicting access tolerable. A
/// conflict is "guarded" when either side carries a non-kNone guard.
enum class Guard : std::uint8_t {
  kNone = 0,
  kCrcVerify,       ///< reader verifies a checksum before trusting bytes
  kDurabilityFlag,  ///< reader checks the durability flag before trusting
  kMetaRevalidate,  ///< reader re-validates header/meta against the index
  kRecoveryScan,    ///< recovery walk: every candidate is CRC-re-verified
  kAtomicWord,      ///< 8-byte NVM/RDMA atomicity unit, last-writer-wins
  kDeclaredRacy,    ///< writer declares the race (in-place live update)
};
[[nodiscard]] const char* to_string(Guard g) noexcept;

enum class ViolationKind : std::uint8_t {
  kWriteWriteRace,        ///< write over an unordered write
  kWriteReadRace,         ///< write over an unordered unguarded read
  kReadWriteRace,         ///< read of an unordered completed write
  kReadOfInFlightWrite,   ///< read inside a DMA payload's arrival interval
  kUnflushedDurability,   ///< durability exposed while bytes are volatile
};
[[nodiscard]] const char* to_string(ViolationKind k) noexcept;

/// One reported violation; report() renders these with actor names.
struct Violation {
  ViolationKind kind = ViolationKind::kWriteWriteRace;
  MemOffset offset = 0;         ///< first conflicting byte
  std::size_t length = 0;       ///< extent of the acting access
  std::uint32_t actor = 0;      ///< acting side
  std::uint32_t prior_actor = 0;
  SimTime time = 0;             ///< virtual instant of the acting access
  SimTime prior_time = 0;       ///< prior access (DMA writes: arrival end)
  const char* site = "";        ///< annotation label of the acting side
  const char* prior_site = "";  ///< annotation label of the prior side
};

/// The sanitizer. One per cluster, owned by StoreBase when
/// StoreConfig::analysis.enabled; attaches itself to the Simulator as its
/// HbHooks and to the Arena as its access observer. The current actor is
/// the simulator's (Simulator::context().actor), which every event carries
/// and every sync-primitive wake-up takes from its waiter.
class Checker final : public sim::HbHooks {
 public:
  /// Violation records retained verbatim; any beyond are still counted in
  /// the totals but not stored.
  static constexpr std::size_t kMaxReports = 64;

  /// `registry` hosts the "analysis.*" counters (pass the store's registry
  /// so they land next to server counters; nullptr → private registry).
  Checker(sim::Simulator& sim, AnalysisOptions options,
          metrics::MetricsRegistry* registry = nullptr);
  ~Checker() override;
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  // ------------------------------------------------------------- actors

  /// The shared server-domain actor (pre-registered at construction).
  [[nodiscard]] std::uint32_t server_actor() const noexcept { return 1; }

  /// Register a fresh client actor ("client-N"); returns its id.
  [[nodiscard]] std::uint32_t register_client_actor();

  [[nodiscard]] const std::string& actor_name(std::uint32_t actor) const;

  /// Make `actor` the current clock domain and label its ongoing
  /// operation for reports (label must have static storage duration).
  void switch_to(std::uint32_t actor, const char* label) noexcept;

  [[nodiscard]] sim::Simulator& simulator() const noexcept { return sim_; }

  // ------------------------------------------------------------ HbHooks

  void release(sim::VectorClock& into) override;
  void acquire(const sim::VectorClock& from) override;

  // ----------------------------------------------- memory hooks (Arena)

  void on_cpu_write(MemOffset off, std::size_t len);
  void on_dma_write(MemOffset off, std::size_t len, SimTime start,
                    SimTime end);
  void on_read(MemOffset off, std::size_t len);
  /// The volatility boundary moved: [off, off+len) is now persisted.
  void on_flush(MemOffset off, std::size_t len);
  /// Power failure: all shadow state is void (post-crash contents are the
  /// persisted image; recovery re-reads under its own guards).
  void on_crash();
  /// Pool recycling: drop shadow stamps so stale records of retired data
  /// never conflict with fresh allocations at the same offsets.
  void forget_region(MemOffset off, std::size_t len) noexcept;

  // ----------------------------------------------------- durability lint

  /// Fail (kUnflushedDurability) if any byte of [off, off+len) is dirty
  /// past the volatility boundary or still in flight as DMA. Call at every
  /// point that exposes the range as durable.
  void assert_durable(MemOffset off, std::size_t len, const char* site);

  // ------------------------------------------------- guards (AccessGuard)

  void push_guard(std::uint32_t actor, Guard guard, const char* site);
  void pop_guard(std::uint32_t actor) noexcept;

  /// False once this checker is destroyed. A guard held by a suspended
  /// coroutine frame is destroyed with the Simulator, after the store
  /// that owns the checker, so it must not pop into a dead checker.
  [[nodiscard]] std::shared_ptr<const bool> alive() const noexcept {
    return alive_;
  }

  // ------------------------------------------------------------- results

  [[nodiscard]] std::uint64_t unguarded_races() const noexcept {
    return unguarded_total_;
  }
  [[nodiscard]] std::uint64_t guarded_conflicts() const noexcept {
    return guarded_total_;
  }
  [[nodiscard]] std::uint64_t durability_violations() const noexcept {
    return durability_total_;
  }
  /// True iff no unguarded race and no durability violation was seen.
  [[nodiscard]] bool clean() const noexcept {
    return unguarded_total_ == 0 && durability_total_ == 0;
  }
  [[nodiscard]] const std::deque<Violation>& violations() const noexcept {
    return violations_;
  }
  /// Human-readable report of every retained violation plus totals.
  [[nodiscard]] std::string report() const;

 private:
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  static constexpr std::size_t kPageBytes = 4096;
  static constexpr std::size_t kAtomic = 8;  ///< NVM failure-atomicity unit

  /// Shadow state for one 4 KiB arena page, allocated lazily on first
  /// access. Per byte: id (into records_, +1; 0 = none) of the last write
  /// and the last read. Per 8-byte word (one bit): volatile since the last
  /// flush covering it.
  struct Page {
    std::array<std::uint32_t, kPageBytes> last_write{};
    std::array<std::uint32_t, kPageBytes> last_read{};
    std::array<std::uint64_t, kPageBytes / kAtomic / 64> volatile_words{};
  };

  struct AccessRecord {
    std::uint32_t actor = 0;
    std::uint64_t epoch = 0;    ///< writer's own clock entry at access time
    SimTime time = 0;           ///< instant the access was recorded
    SimTime end = 0;            ///< DMA: arrival end; CPU: == time
    Guard guard = Guard::kNone;
    const char* site = "";
  };

  struct Counters {
    explicit Counters(metrics::MetricsRegistry& r)
        : reads_checked(r.counter("analysis.reads_checked")),
          writes_checked(r.counter("analysis.writes_checked")),
          conflicts_guarded(r.counter("analysis.conflicts_guarded")),
          races_unguarded(r.counter("analysis.races_unguarded")),
          durability_checks(r.counter("analysis.durability_checks")),
          durability_violations(r.counter("analysis.durability_violations")),
          durability_suppressed(r.counter("analysis.durability_suppressed")) {}
    metrics::Counter& reads_checked;
    metrics::Counter& writes_checked;
    metrics::Counter& conflicts_guarded;
    metrics::Counter& races_unguarded;
    metrics::Counter& durability_checks;
    metrics::Counter& durability_violations;
    metrics::Counter& durability_suppressed;
  };

  [[nodiscard]] std::uint32_t running_actor() const noexcept {
    return sim_.context().actor;
  }
  [[nodiscard]] Page& page(std::size_t index);
  [[nodiscard]] Page* find_page(std::size_t index) const noexcept;
  /// True iff `rec` happens-before the current actor's present instant.
  [[nodiscard]] bool ordered_before_current(const AccessRecord& rec) const;
  [[nodiscard]] Guard active_guard(std::uint32_t actor) const noexcept;
  [[nodiscard]] const char* active_site(std::uint32_t actor) const noexcept;
  std::uint32_t new_record(SimTime end, Guard guard, const char* site);
  void record_conflict(ViolationKind kind, MemOffset off, std::size_t len,
                       const AccessRecord& prior, Guard own_guard,
                       const char* own_site);
  void add_violation(Violation v, bool durability);
  void render(const Violation& v, std::string& out) const;

  void write_common(MemOffset off, std::size_t len, SimTime end);
  void mark_volatile(MemOffset off, std::size_t len);

  sim::Simulator& sim_;
  AnalysisOptions options_;
  std::uint32_t next_client_ = 1;
  std::vector<std::string> names_;           ///< actor id -> display name
  std::vector<const char*> labels_;          ///< actor id -> op label
  std::vector<sim::VectorClock> clocks_;     ///< actor id -> vector clock
  std::vector<std::vector<std::pair<Guard, const char*>>> guard_stacks_;
  std::unordered_map<std::size_t, std::unique_ptr<Page>> pages_;
  std::deque<AccessRecord> records_;
  std::deque<Violation> violations_;
  std::uint64_t unguarded_total_ = 0;
  std::uint64_t guarded_total_ = 0;
  std::uint64_t durability_total_ = 0;
  // Declaration order: owned_metrics_ (if any) must outlive stats_.
  std::unique_ptr<metrics::MetricsRegistry> owned_metrics_;
  metrics::MetricsRegistry& metrics_;
  Counters stats_;
};

/// RAII actor switch: sets the simulator's current actor for the dynamic
/// extent of a scope, restoring the previous one on exit. Null checker →
/// no-op (the disabled-path pattern used everywhere).
class ActorScope {
 public:
  ActorScope(Checker* checker, std::uint32_t actor) noexcept
      : sim_(checker != nullptr ? &checker->simulator() : nullptr),
        saved_(sim_ != nullptr ? sim_->context().actor : 0) {
    if (sim_ != nullptr) sim_->set_actor(actor);
  }
  ~ActorScope() {
    if (sim_ != nullptr) sim_->set_actor(saved_);
  }
  ActorScope(const ActorScope&) = delete;
  ActorScope& operator=(const ActorScope&) = delete;

 private:
  sim::Simulator* sim_;
  std::uint32_t saved_;
};

/// RAII guard annotation: declares that accesses made by the current
/// actor within this scope are protected by `guard` (the annotation API
/// stores use at their read/verify sites). The guard is keyed by the
/// actor captured at construction, so it stays active across coroutine
/// suspensions — the resumed continuation runs under the same actor.
class AccessGuard {
 public:
  AccessGuard(Checker* checker, Guard guard, const char* site) noexcept
      : checker_(checker),
        actor_(checker != nullptr ? checker->simulator().context().actor
                                  : 0) {
    if (checker_ == nullptr) return;
    alive_ = checker_->alive();
    checker_->push_guard(actor_, guard, site);
  }
  ~AccessGuard() {
    if (checker_ != nullptr && *alive_) checker_->pop_guard(actor_);
  }
  AccessGuard(const AccessGuard&) = delete;
  AccessGuard& operator=(const AccessGuard&) = delete;

 private:
  Checker* checker_;
  std::uint32_t actor_;
  std::shared_ptr<const bool> alive_;  ///< set iff checker_ is
};

}  // namespace efac::analysis
