// Sharded multi-server cluster: N independent store nodes with the
// keyspace partitioned by a client-side consistent-hash directory.
//
// Topology (ROADMAP item 1, AsymNVM's asymmetric many-clients-few-backends
// shape): every shard is a complete single-server cluster — its own NVM
// arena, index, server workers, background verifier/cleaner, fault
// injector and RPC endpoint — all driven by ONE deterministic simulator.
// Nothing is shared between shards, so they proceed independently under
// the scheduler and per-shard event ordering stays bit-reproducible.
//
// Routing is client-side: a ShardRing (consistent hashing with virtual
// nodes) maps key hashes to shard ids. Clients hold one protocol client
// per shard and a routing wrapper (ShardedKvClient) that reuses the shared
// retry/trace/metrics engine of KvClient:
//
//   * single ops  — route by key, delegate to the shard's protocol client;
//   * put_batch   — split into per-shard sub-batches; each sub-batch uses
//                   the shard's batch-reserve alloc RPC (one kAllocBatch
//                   round trip per shard), sub-batches run concurrently,
//                   and members that fail transiently re-enter the normal
//                   per-op retry tail;
//   * get_batch   — pipelined through the bounded in-flight window (base
//                   class path), redeeming completions out of order across
//                   shards.
//
// A num_shards == 1 cluster is EXACTLY the unsharded system: the single
// shard's store is built from an unmodified StoreConfig and make_client
// returns the plain protocol client (no wrapper), so schedules and
// dispatch hashes are bit-identical to pre-sharding runs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "fault/fault.hpp"
#include "stores/factory.hpp"

namespace efac::stores {

/// Client-side consistent-hash directory. Each shard contributes
/// `vnodes_per_shard` points on a 64-bit ring; a key belongs to the shard
/// owning the first point at or clockwise after the key's ring position.
/// Point positions depend only on (hash_seed, shard, vnode), so growing
/// the cluster adds points without moving the existing ones: keys only
/// ever migrate TO the new shard (~1/N of them), never between survivors.
class ShardRing {
 public:
  static constexpr std::size_t kDefaultVnodes = 64;

  /// Degenerate single-shard ring: every key maps to shard 0.
  ShardRing() = default;
  ShardRing(std::size_t num_shards, std::uint64_t hash_seed,
            std::size_t vnodes_per_shard = kDefaultVnodes);

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return num_shards_;
  }
  /// The ring position a key hashes to (seed-mixed, stable per seed).
  [[nodiscard]] std::uint64_t key_point(BytesView key) const noexcept;
  [[nodiscard]] std::uint32_t shard_for_point(
      std::uint64_t point) const noexcept;
  [[nodiscard]] std::uint32_t shard_for_key(BytesView key) const noexcept {
    if (num_shards_ <= 1) return 0;
    return shard_for_point(key_point(key));
  }

 private:
  struct Point {
    std::uint64_t hash = 0;
    std::uint32_t shard = 0;
  };
  std::vector<Point> points_;  ///< sorted by (hash, shard)
  std::uint64_t hash_seed_ = 0;
  std::size_t num_shards_ = 1;
};

/// Configuration of a sharded cluster. `store` is the per-shard template;
/// see shard_store_config() for the deterministic per-shard derivation.
struct ClusterConfig {
  std::size_t num_shards = 1;
  /// Seed of the directory's hash ring (routing is a pure function of
  /// this, num_shards and vnodes_per_shard — never of insertion order).
  std::uint64_t hash_seed = 0x5A4DB01;
  std::size_t vnodes_per_shard = ShardRing::kDefaultVnodes;
  /// Template store configuration. pool_bytes is the CLUSTER total; each
  /// shard gets its partition (with skew headroom) from it.
  StoreConfig store;
  /// Optional per-shard fault-plan overrides (index = shard id). Shards
  /// beyond the vector (or with an empty entry) inherit store.fault_plan
  /// with a shard-mixed seed. Lets tests fail one shard while its
  /// siblings stay healthy.
  std::vector<fault::FaultPlan> shard_fault_plans;
};

/// The StoreConfig shard `shard` of `config` runs with. Identity when
/// num_shards == 1 (bit-identical single-shard clusters); otherwise the
/// pool is partitioned (2x headroom for hash skew), the store seed is
/// shard-mixed so shards draw independent latency-jitter streams, and the
/// instrument prefix (trace tracks, telemetry series) becomes "s<shard>/".
[[nodiscard]] StoreConfig shard_store_config(const ClusterConfig& config,
                                             std::size_t shard);

/// A cluster of independent store nodes plus the client-side directory.
struct ShardedCluster {
  SystemKind kind = SystemKind::kEFactory;
  ClusterConfig config;
  ShardRing ring;
  std::vector<Cluster> shards;

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards.size();
  }
  [[nodiscard]] StoreBase& store(std::size_t shard) const {
    EFAC_CHECK(shard < shards.size());
    return *shards[shard].store;
  }
  [[nodiscard]] std::uint32_t shard_for_key(BytesView key) const noexcept {
    return ring.shard_for_key(key);
  }

  /// Start every shard's server actors (shard order, deterministic).
  void start();

  /// Build a routed client: one protocol client per shard behind a
  /// ShardedKvClient. With one shard this returns the plain protocol
  /// client itself — zero wrapper, bit-identical schedules.
  [[nodiscard]] std::unique_ptr<KvClient> make_client(
      const ClientOptions& options = {}) const;
};

/// Build (but do not start) a sharded cluster of the given kind.
[[nodiscard]] ShardedCluster make_sharded_cluster(sim::Simulator& sim,
                                                  SystemKind kind,
                                                  ClusterConfig config);

/// Routing client for num_shards >= 2: owns one protocol client per shard
/// and implements the *_attempt surface by consistent-hash dispatch, so
/// the shared KvClient engine (retry/backoff, async window, batching,
/// tracing) applies unchanged on top of the routed attempts.
class ShardedKvClient final : public KvClient {
 public:
  ShardedKvClient(sim::Simulator& sim, const ClientOptions& options,
                  ShardRing ring,
                  std::vector<std::unique_ptr<KvClient>> shard_clients);

  /// Merges the wrapper's registry AND every shard client's registry (all
  /// under the same prefix), so per-shard qp.*/span.* instruments
  /// aggregate exactly like an unsharded client's would.
  void merge_metrics_into(metrics::MetricsRegistry& into,
                          std::string_view prefix) const override;

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return inner_.size();
  }
  [[nodiscard]] KvClient& shard_client(std::size_t shard) {
    EFAC_CHECK(shard < inner_.size());
    return *inner_[shard];
  }
  [[nodiscard]] const ShardRing& ring() const noexcept { return ring_; }

 protected:
  sim::Task<Status> put_attempt(Bytes key, Bytes value) override;
  sim::Task<Expected<Bytes>> get_attempt(Bytes key) override;
  sim::Task<Status> del_attempt(Bytes key) override;

  [[nodiscard]] bool has_batch_put() const noexcept override;
  sim::Task<std::vector<Status>> put_batch_attempt(
      std::vector<PutOp>& ops,
      const std::vector<std::uint32_t>& op_ids) override;

 private:
  struct BatchJoin;
  /// One shard's slice of a batch attempt: the member indices in `idxs`
  /// run as a single batch-reserve sub-batch (or fall back to sequential
  /// attempts), writing per-member statuses into `out`.
  sim::Task<void> shard_batch_driver(std::size_t shard,
                                     std::vector<std::size_t> idxs,
                                     std::vector<PutOp>* ops,
                                     std::vector<std::uint32_t> sub_ids,
                                     std::vector<Status>* out,
                                     BatchJoin* join);

  ShardRing ring_;
  std::vector<std::unique_ptr<KvClient>> inner_;
};

}  // namespace efac::stores
