// Closed-loop multi-client run harness.
//
// Mirrors the paper's measurement setup: N concurrent clients issue
// operations "as fast as possible" (closed loop — the next op is issued
// when the previous completes); throughput is completed operations over
// the virtual time span, latency comes from per-op virtual timestamps.
//
// A run has three phases:
//   1. load    — every key is inserted once (so GETs always hit);
//   2. settle  — the simulation idles long enough for background work
//                (eFactory's verifier) to drain;
//   3. measure — the configured mix runs for ops_per_client per client.
#pragma once

#include <cstdint>

#include "common/histogram.hpp"
#include "metrics/metrics.hpp"
#include "sim/simulator.hpp"
#include "stores/factory.hpp"
#include "stores/sharding.hpp"
#include "workload/ycsb.hpp"

namespace efac::workload {

struct RunOptions {
  WorkloadConfig workload;
  std::size_t clients = 8;
  std::size_t ops_per_client = 1500;
  /// Extra settle time after the load phase (on top of a heuristic based
  /// on key count) before measurement starts.
  SimDuration extra_settle_ns = 200 * timeconst::kMicrosecond;
  /// Template for every client the harness creates (loaders and measured
  /// alike); the harness overrides size_hint from the workload shape. Lets
  /// sweeps turn on per-client features — adaptive reads, retry policies —
  /// without a parallel plumbing path. The default keeps runs
  /// bit-identical to the pre-template harness.
  stores::ClientOptions client;
};

struct RunResult {
  double mops = 0.0;            ///< measured throughput, million ops/s
  SimDuration span_ns = 0;      ///< virtual time the measured phase took
  std::uint64_t ops = 0;
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t get_failures = 0;  ///< reads that returned an error
  std::uint64_t put_failures = 0;  ///< writes that returned an error
  Histogram put_latency;        ///< ns
  Histogram get_latency;        ///< ns
  Histogram op_latency;         ///< ns, both op types
  /// Merged registry: the store's server-side metrics plus every MEASURED
  /// client's counters and span histograms, summed over clients (loaders
  /// excluded — their traffic is setup, not measurement).
  metrics::MetricsRegistry metrics;

  [[nodiscard]] double mean_latency_us() const {
    return op_latency.mean() / 1000.0;
  }
};

/// Run `options` against a fresh `cluster` (cluster must not be started
/// yet). Uses — and advances — the cluster's simulator.
RunResult run_workload(sim::Simulator& sim, stores::Cluster& cluster,
                       const RunOptions& options);

/// Same harness against a sharded cluster: clients are routed consistent-
/// hash clients, the settle phase drains every shard's verifier, and the
/// merged registry aggregates all shards (plus per-shard copies under
/// "shard<i>/" when there is more than one). A num_shards == 1 cluster
/// runs byte-identically to the unsharded overload.
RunResult run_workload(sim::Simulator& sim, stores::ShardedCluster& cluster,
                       const RunOptions& options);

/// Build a StoreConfig sized for a run (pool large enough for the load
/// plus the measured writes with headroom).
[[nodiscard]] stores::StoreConfig sized_store_config(
    const RunOptions& options, bool for_cleaning = false);

}  // namespace efac::workload
