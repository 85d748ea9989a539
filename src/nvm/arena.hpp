// Simulated byte-addressable non-volatile memory with an explicit
// volatility boundary.
//
// The arena keeps one image, `current_`: what any reader (server CPU or NIC
// DMA) observes *now*. What survives a crash is tracked per 64-byte cache
// line, as in-cache-line logging does: a clean line's persisted bytes are
// its current bytes; a dirty line's are held in an undo copy taken when the
// clean line was first written (or, when they are all zero, only noted as
// such).
//
// CPU stores and inbound RDMA-WRITE payloads (DDIO: data lands in the LLC,
// not the media) modify only `current_` and mark the touched cache lines
// dirty. An explicit flush (CLWB/CLFLUSH + SFENCE in real hardware) makes
// its lines clean and drops their undo copies. crash() walks the dirty
// lines: mimicking natural cache eviction, each dirty 8-byte word
// independently survives with a configurable probability (8 bytes is the
// failure-atomicity unit of NVM: a word is never torn); every other dirty
// word gets its undo bytes back.
//
// Inbound DMA is modelled with *chunked arrival*: a payload delivered over
// the virtual interval [start, end) becomes visible 64 bytes at a time, so
// a concurrent reader — or a crash — observes exactly the partially-placed
// objects that motivate the paper's CRC checks and version lists.
//
// Costs (flush per line, fence, load/store per byte) are exposed as
// query-only helpers: the arena never advances the clock itself; actors
// charge the returned durations with sim::delay so that CPU time is spent
// where the actor runs.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "fault/fault.hpp"
#include "metrics/metrics.hpp"
#include "sim/simulator.hpp"

namespace efac::analysis {
class Checker;
}  // namespace efac::analysis

namespace efac::nvm {

/// Virtual-time costs of NVM operations (defaults follow DRAM-emulated
/// persistent memory, as the paper's PMDK setup does: flushes pay a fixed
/// setup (CLWB issue + emulated NVM write latency) plus a bandwidth term).
struct CostModel {
  SimDuration flush_base_ns = 100;  ///< per-flush setup + injected latency
  double flush_byte_ns = 1.2;       ///< emulated NVM write bandwidth
  SimDuration fence_ns = 700;       ///< SFENCE drain latency
  double store_byte_ns = 0.12;      ///< CPU store path, per byte
  double load_byte_ns = 0.06;       ///< CPU load path, per byte

  [[nodiscard]] SimDuration flush_cost(std::size_t bytes) const noexcept;
  [[nodiscard]] SimDuration store_cost(std::size_t bytes) const noexcept;
  [[nodiscard]] SimDuration load_cost(std::size_t bytes) const noexcept;
};

/// How in-flight DMA chunks materialize over the arrival interval.
enum class PlacementOrder {
  kSequential,  ///< chunks land lowest-address first (PCIe-like)
  kShuffled,    ///< chunks land in a seeded random order (adversarial)
};

/// Crash-time behaviour of dirty (unflushed) data.
struct CrashPolicy {
  /// Probability that a dirty 8-byte word was naturally evicted to the
  /// media before the crash and therefore survives. 0 = nothing dirty
  /// survives; 1 = everything dirty survives (write-through-like).
  double eviction_probability = 0.5;
};

class Arena {
 public:
  /// The arena's counters ("arena.*"), resolved once at construction.
  /// stats() hands out a read view; copy a value out before comparing it
  /// with a later one.
  struct Counters {
    explicit Counters(metrics::MetricsRegistry& r)
        : cpu_stores(r.counter("arena.cpu_stores")),
          cpu_store_bytes(r.counter("arena.cpu_store_bytes")),
          cpu_loads(r.counter("arena.cpu_loads")),
          cpu_load_bytes(r.counter("arena.cpu_load_bytes")),
          flushes(r.counter("arena.flushes")),
          flushed_lines(r.counter("arena.flushed_lines")),
          dma_writes(r.counter("arena.dma_writes")),
          dma_bytes(r.counter("arena.dma_bytes")),
          crashes(r.counter("arena.crashes")) {}
    Counters(const Counters&) = delete;
    metrics::Counter& cpu_stores;
    metrics::Counter& cpu_store_bytes;
    metrics::Counter& cpu_loads;
    metrics::Counter& cpu_load_bytes;
    metrics::Counter& flushes;
    metrics::Counter& flushed_lines;
    metrics::Counter& dma_writes;
    metrics::Counter& dma_bytes;
    metrics::Counter& crashes;
  };

  static constexpr std::size_t kLine = sizeconst::kCacheLine;
  static constexpr std::size_t kAtomicUnit = 8;

  /// `registry` hosts the arena's counters (names "arena.*"); pass the
  /// owning store's registry so arena traffic lands next to server
  /// counters. nullptr → the arena owns a private registry.
  Arena(sim::Simulator& sim, std::size_t size, CostModel cost = {},
        std::uint64_t seed = 0x5eed,
        metrics::MetricsRegistry* registry = nullptr);

  [[nodiscard]] std::size_t size() const noexcept { return current_.size(); }
  [[nodiscard]] const CostModel& cost() const noexcept { return cost_; }
  [[nodiscard]] const Counters& stats() const noexcept { return stats_; }
  [[nodiscard]] metrics::MetricsRegistry& metrics() noexcept {
    return metrics_;
  }

  // ------------------------------------------------------------- CPU path

  /// CPU store: contents become visible immediately, durable only after
  /// flush(). Cost must be charged by the caller (cost().store_cost()).
  void store(MemOffset off, BytesView data);

  /// 8-byte-aligned atomic store (the NVM failure-atomicity unit).
  void store_u64(MemOffset off, std::uint64_t value);

  /// CPU / NIC read of current contents. Resolves in-flight DMA first.
  void load(MemOffset off, MutableBytesView out);
  [[nodiscard]] Bytes load(MemOffset off, std::size_t len);
  [[nodiscard]] std::uint64_t load_u64(MemOffset off);

  /// Make [off, off+len) durable: the touched lines become clean and drop
  /// their undo copies. Instantaneous; charge cost().flush_cost(len) +
  /// cost().fence_ns at the call site. For crash-during-flush
  /// experiments, flush line-by-line with delays.
  /// An armed fault injector may silently drop (kPersistDrop) or defer
  /// (kPersistDelay) the persist while the caller still observes success.
  void flush(MemOffset off, std::size_t len);

  /// Arm fault injection on the persist path (nullptr disarms). The
  /// injector must outlive the arena.
  void set_injector(fault::Injector* injector) noexcept {
    injector_ = injector;
  }

  /// Attach the conflict sanitizer (nullptr detaches). Every store / load /
  /// DMA / flush / crash is mirrored into its shadow memory. The checker
  /// must outlive the arena.
  void set_checker(analysis::Checker* checker) noexcept {
    checker_ = checker;
  }

  /// Drop the sanitizer's shadow stamps for [off, off+len) — call when a
  /// region is recycled (pool reset) so stale records of retired data never
  /// conflict with fresh allocations at the same offsets.
  void forget_shadow(MemOffset off, std::size_t len) noexcept;

  /// True if any byte of [off, off+len) is dirty (not yet persisted).
  [[nodiscard]] bool is_dirty(MemOffset off, std::size_t len);

  // ------------------------------------------------------------- DMA path

  /// Inbound RDMA-WRITE payload: becomes visible chunk-by-chunk across
  /// [start, end); volatile (DDIO) until flushed by the CPU.
  void dma_write(MemOffset off, BytesView data, SimTime start, SimTime end,
                 PlacementOrder order = PlacementOrder::kSequential);

  // ------------------------------------------------------- failure model

  /// Power failure at the current instant. In-flight DMA stops (chunks not
  /// yet arrived are lost); each dirty 8-byte word survives with
  /// policy.eviction_probability; every other dirty word reverts to its
  /// persisted bytes. After crash() the arena is clean (no dirty lines, no
  /// DMA).
  void crash(const CrashPolicy& policy = {});

  /// What a crash with no eviction would leave in [off, off+len): the
  /// current bytes with each dirty line's undo copy laid over them.
  [[nodiscard]] Bytes persisted_bytes(MemOffset off, std::size_t len) const;

 private:
  struct Placement {
    MemOffset off;
    Bytes data;
    SimTime start;
    SimTime end;
    PlacementOrder order;
    std::uint64_t shuffle_seed;
    /// Chunks (in placement order) arrived by the last resolved instant;
    /// all of them are applied to current_.
    std::size_t applied_chunks = 0;
    /// Arrival instant of chunk `applied_chunks`, the next one to land.
    SimTime next_arrival = 0;
  };

  /// undo_ values: the line is clean, or dirty with all-zero persisted
  /// bytes; any other value is the undo slot holding the persisted bytes.
  static constexpr std::uint32_t kClean = 0;
  static constexpr std::uint32_t kZeroUndo =
      std::numeric_limits<std::uint32_t>::max();
  /// Undo slots come in fixed blocks that never move while the arena
  /// lives. Slot 0 is never handed out: 0 means kClean in undo_ and ends
  /// the free list.
  static constexpr std::size_t kSlotsPerBlock = 4096;
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  void check_range(MemOffset off, std::size_t len) const;
  /// Start of [off, off+len) in current_, after resolving in-flight DMA
  /// and counting (and reporting) the load; an empty range counts nothing.
  const std::uint8_t* begin_load(MemOffset off, std::size_t len);
  void flush_now(MemOffset off, std::size_t len);
  /// Mark the lines of [off, off+len) dirty, taking the undo copy of each
  /// line that was clean. Call before the bytes change.
  void mark_dirty(MemOffset off, std::size_t len);
  /// Make `line` clean, returning its undo slot (if any) to the free list.
  void mark_clean(std::size_t line);
  /// A free undo slot: the head of the free list, else a fresh one.
  std::uint32_t take_slot();
  [[nodiscard]] std::uint8_t* slot_bytes(std::uint32_t slot) const noexcept;
  /// Apply every DMA chunk that has arrived by `now`.
  void resolve_dma(SimTime now);
  /// Copy chunks [first_chunk, end_chunk) (by address) into current_.
  void apply_range(const Placement& p, std::size_t first_chunk,
                   std::size_t end_chunk);
  static std::size_t chunk_count(const Placement& p) noexcept;

  sim::Simulator& sim_;
  CostModel cost_;
  std::vector<std::uint8_t> current_;
  /// Per line: kClean, kZeroUndo or an undo slot.
  std::vector<std::uint32_t> undo_;
  std::vector<std::unique_ptr<std::uint8_t[]>> undo_blocks_;
  std::uint32_t next_slot_ = 1;  ///< first slot never handed out
  std::uint32_t free_slot_ = 0;  ///< head of the free list threaded
                                 ///< through the slots' first bytes
  std::vector<Placement> pending_;
  /// Earliest next_arrival of pending_ (kNever when nothing is in flight).
  SimTime next_arrival_ = kNever;
  Rng rng_;
  fault::Injector* injector_ = nullptr;
  analysis::Checker* checker_ = nullptr;
  // Declaration order matters: owned_metrics_ (if any) must outlive the
  // Counter references in stats_.
  std::unique_ptr<metrics::MetricsRegistry> owned_metrics_;
  metrics::MetricsRegistry& metrics_;
  Counters stats_;
};

}  // namespace efac::nvm
