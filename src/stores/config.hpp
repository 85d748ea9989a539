// Store configuration and the server-side CPU cost model.
//
// Every virtual-time constant a handler charges lives here so that the
// calibration knobs for the paper's figures are in one place. Defaults are
// tuned so the motivation experiments (Fig. 1, Fig. 2) land near the
// paper's numbers; everything else follows from the model.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include <algorithm>

#include "analysis/options.hpp"
#include "checksum/crc32.hpp"
#include "common/types.hpp"
#include "fault/fault.hpp"
#include "kv/erda_table.hpp"
#include "kv/hash_dir.hpp"
#include "nvm/arena.hpp"
#include "rdma/fabric.hpp"

namespace efac::stores {

/// Per-request server CPU costs (charged by handler coroutines).
struct ServerCostModel {
  /// Poll the CQ, consume and repost a receive, parse the request. The
  /// paper credits eFactory's "multiple receiving regions" batching for a
  /// 5–22 % PUT edge over Erda: batched posting amortizes doorbells and
  /// repost work, captured as the lower per-message figure.
  SimDuration recv_handling_ns = 1500;
  SimDuration recv_handling_batched_ns = 200;
  /// One bucket probe.
  SimDuration hash_probe_ns = 90;
  /// Log bump-allocation + bookkeeping.
  SimDuration alloc_ns = 150;
  /// Building and posting the response SEND.
  SimDuration send_post_ns = 300;
  /// Server-side memcpy (RPC inline data path), per byte.
  double memcpy_byte_ns = 0.35;
  /// Forca's extra object-metadata indirection on every request (paper
  /// §6.1: the intermediate metadata layer costs it small-value PUTs).
  SimDuration metadata_indirection_ns = 250;
  /// Erda's per-insert index maintenance beyond a flat probe: hopscotch
  /// displacement checks plus the read-modify-write of the atomic region.
  SimDuration erda_index_ns = 200;
  /// Extra per-request cost of the full-service RPC data path (bounce
  /// buffer management, large-receive reposting) on top of recv handling.
  SimDuration rpc_inline_extra_ns = 2000;

  [[nodiscard]] SimDuration memcpy_cost(std::size_t bytes) const noexcept {
    return static_cast<SimDuration>(
        std::llround(memcpy_byte_ns * static_cast<double>(bytes)));
  }
};

/// Flight recorder switch (trace/event_log.hpp). Off: no EventLog is
/// created and every emission site reduces to one null-pointer test.
struct TraceOptions {
  bool enabled = false;
};

/// Telemetry sampler switch (metrics/telemetry.hpp). Off: no sampler is
/// created and every probe site reduces to one null-pointer test.
struct TelemetryOptions {
  bool enabled = false;
};

/// Which receive-path optimization the server uses.
enum class RecvMode {
  kSingle,   ///< one receive region per message (baselines)
  kBatched,  ///< eFactory's multiple receiving regions
};

/// Full configuration of one simulated store cluster.
struct StoreConfig {
  // ---- capacity ----
  std::size_t hash_buckets = 1u << 15;
  std::size_t pool_bytes = 32 * sizeconst::kMiB;
  bool second_pool = false;  ///< reserve a sibling pool (eFactory cleaning)

  // ---- server ----
  std::size_t server_workers = 6;  ///< request-processing threads
  RecvMode recv_mode = RecvMode::kSingle;
  ServerCostModel cpu;
  nvm::CostModel nvm;
  checksum::CrcCostModel crc;

  // ---- eFactory background verification ----
  /// Idle poll period when the verify queue is empty.
  SimDuration bg_idle_ns = 2 * timeconst::kMicrosecond;
  /// Back-off before re-checking an object whose CRC did not (yet) match.
  SimDuration bg_retry_ns = 3 * timeconst::kMicrosecond;
  /// Objects whose payload never completes within this window are invalid.
  SimDuration object_timeout_ns = 100 * timeconst::kMicrosecond;

  // ---- eFactory log cleaning ----
  double clean_threshold = 0.70;  ///< trigger at this pool fill fraction
  /// Modelled propagation delay of the cleaning start/stop notification.
  SimDuration clean_notify_ns = 2 * timeconst::kMicrosecond;
  /// Extra per-alloc cost while a round runs: the cleaner ping-pongs
  /// between pools, hurting cache locality for the request threads (the
  /// paper's explanation for the small PUT overhead in Fig. 11).
  SimDuration clean_interference_ns = 120;

  // ---- fabric / failure ----
  rdma::FabricConfig fabric;
  nvm::CrashPolicy crash_policy;
  /// Deterministic fault scenario (default: empty = no injection; the
  /// fault hooks stay inert and schedules are bit-identical).
  fault::FaultPlan fault_plan;
  /// Conflict sanitizer (default: disabled = no shadow memory, no vector
  /// clocks; every instrumentation site reduces to one pointer test).
  analysis::AnalysisOptions analysis;
  /// Flight recorder and telemetry sampler. Both only read the run, so
  /// either one on leaves the schedule and the registries untouched.
  TraceOptions trace;
  TelemetryOptions telemetry;
  /// Prepended to every flight-recorder track and telemetry series name.
  /// Sharded clusters set "s<shard>/" so each shard's instruments stay
  /// distinguishable in merged exports; empty (the default) leaves names
  /// as they are.
  std::string instrument_prefix;
  std::uint64_t seed = 0xEFAC;

  [[nodiscard]] SimDuration recv_cost() const noexcept {
    return recv_mode == RecvMode::kBatched ? cpu.recv_handling_batched_ns
                                           : cpu.recv_handling_ns;
  }

  /// Index-region bytes needed at `hash_buckets`, derived from the actual
  /// entry layouts: HashDir (every store but Erda) and ErdaTable (hopscotch
  /// buckets plus a neighborhood spill region). The max over both is the
  /// bound no concrete store exceeds; StoreBase asserts this at
  /// construction.
  [[nodiscard]] std::size_t index_bytes() const noexcept {
    return std::max(kv::HashDir::bytes_required(hash_buckets),
                    kv::ErdaTable::bytes_required(hash_buckets));
  }

  /// Arena bytes needed for this configuration: the index region plus the
  /// data pool(s), each rounded up to cache-line granularity exactly as
  /// StoreBase lays them out.
  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    const std::size_t line = sizeconst::kCacheLine;
    const std::size_t hash_bytes = (index_bytes() + line - 1) / line * line;
    const std::size_t pool = (pool_bytes + line - 1) / line * line;
    const std::size_t total = hash_bytes + pool * (second_pool ? 2 : 1);
    return (total + line - 1) / line * line;
  }
};

}  // namespace efac::stores
