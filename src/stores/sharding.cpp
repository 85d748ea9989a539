#include "stores/sharding.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "kv/object.hpp"
#include "sim/sync.hpp"

namespace efac::stores {

// ---- ShardRing ------------------------------------------------------------

ShardRing::ShardRing(std::size_t num_shards, std::uint64_t hash_seed,
                     std::size_t vnodes_per_shard)
    : hash_seed_(hash_seed),
      num_shards_(std::max<std::size_t>(std::size_t{1}, num_shards)) {
  if (num_shards_ == 1) return;  // everything maps to shard 0, no points
  EFAC_CHECK_MSG(vnodes_per_shard >= 1,
                 "ShardRing needs at least one vnode per shard");
  points_.reserve(num_shards_ * vnodes_per_shard);
  for (std::uint32_t s = 0; s < num_shards_; ++s) {
    for (std::size_t v = 0; v < vnodes_per_shard; ++v) {
      // A point's position depends only on (seed, shard, vnode), so
      // growing the cluster adds points without moving existing ones.
      const std::uint64_t h = mix64(
          hash_seed ^ mix64((std::uint64_t{s} << 32) | std::uint64_t{v}));
      points_.push_back(Point{h, s});
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              return a.hash != b.hash ? a.hash < b.hash : a.shard < b.shard;
            });
}

std::uint64_t ShardRing::key_point(BytesView key) const noexcept {
  return mix64(kv::hash_key(key) ^ hash_seed_);
}

std::uint32_t ShardRing::shard_for_point(std::uint64_t point) const noexcept {
  // Owner = first ring point at or clockwise-after the key's position,
  // wrapping past the top of the 64-bit space.
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), point,
      [](const Point& p, std::uint64_t v) { return p.hash < v; });
  return it == points_.end() ? points_.front().shard : it->shard;
}

// ---- cluster construction -------------------------------------------------

StoreConfig shard_store_config(const ClusterConfig& config,
                               std::size_t shard) {
  const std::size_t shards = std::max<std::size_t>(1, config.num_shards);
  EFAC_CHECK_MSG(shard < shards, "shard index out of range");
  StoreConfig store = config.store;
  if (shards > 1) {
    // Partition the cluster pool with 2x headroom: consistent hashing
    // spreads keys evenly only in expectation, and log-structured stores
    // need slack before the cleaning threshold.
    store.pool_bytes = std::max<std::size_t>(
        4 * sizeconst::kMiB, config.store.pool_bytes * 2 / shards);
    // Independent latency-jitter / fault RNG streams per shard.
    store.seed = mix64(config.store.seed ^ (0x5A4D0000ULL + shard));
    if (!store.fault_plan.empty()) {
      store.fault_plan.seed = mix64(store.fault_plan.seed ^ shard);
    }
    // Per-shard names for flight-recorder tracks and telemetry series,
    // so per-shard imbalance stays visible after benches merge shard
    // exports into one document.
    store.instrument_prefix = "s" + std::to_string(shard) + "/";
  }
  if (shard < config.shard_fault_plans.size() &&
      !config.shard_fault_plans[shard].empty()) {
    store.fault_plan = config.shard_fault_plans[shard];
  }
  return store;
}

ShardedCluster make_sharded_cluster(sim::Simulator& sim, SystemKind kind,
                                    ClusterConfig config) {
  EFAC_CHECK_MSG(config.num_shards >= 1,
                 "a cluster needs at least one shard");
  ShardedCluster cluster;
  cluster.kind = kind;
  cluster.ring =
      ShardRing{config.num_shards, config.hash_seed, config.vnodes_per_shard};
  cluster.shards.reserve(config.num_shards);
  for (std::size_t s = 0; s < config.num_shards; ++s) {
    cluster.shards.push_back(
        make_cluster(sim, kind, shard_store_config(config, s)));
  }
  cluster.config = std::move(config);
  return cluster;
}

void ShardedCluster::start() {
  for (Cluster& shard : shards) shard.start();
}

std::unique_ptr<KvClient> ShardedCluster::make_client(
    const ClientOptions& options) const {
  EFAC_CHECK_MSG(!shards.empty(), "cluster has no shards");
  // One shard: hand out the plain protocol client. No wrapper means no
  // extra events, registries or virtual hops — num_shards == 1 runs are
  // bit-identical to unsharded ones.
  if (shards.size() == 1) return shards.front().make_client(options);
  std::vector<std::unique_ptr<KvClient>> inner;
  inner.reserve(shards.size());
  for (const Cluster& shard : shards) {
    inner.push_back(shard.make_client(options));
  }
  return std::make_unique<ShardedKvClient>(shards.front().store->simulator(),
                                           options, ring, std::move(inner));
}

// ---- ShardedKvClient ------------------------------------------------------

ShardedKvClient::ShardedKvClient(
    sim::Simulator& sim, const ClientOptions& options, ShardRing ring,
    std::vector<std::unique_ptr<KvClient>> shard_clients)
    : KvClient(sim, options),
      ring_(std::move(ring)),
      inner_(std::move(shard_clients)) {
  EFAC_CHECK_MSG(inner_.size() >= 2,
                 "use the plain protocol client for a single shard");
  EFAC_CHECK_MSG(inner_.size() == ring_.num_shards(),
                 "ring and shard-client count disagree");
}

void ShardedKvClient::merge_metrics_into(metrics::MetricsRegistry& into,
                                         std::string_view prefix) const {
  KvClient::merge_metrics_into(into, prefix);
  for (const std::unique_ptr<KvClient>& client : inner_) {
    client->merge_metrics_into(into, prefix);
  }
}

sim::Task<Status> ShardedKvClient::put_attempt(Bytes key, Bytes value) {
  const std::uint32_t shard = ring_.shard_for_key(key);
  co_return co_await inner_[shard]->attempt_put(std::move(key),
                                                std::move(value));
}

sim::Task<Expected<Bytes>> ShardedKvClient::get_attempt(Bytes key) {
  const std::uint32_t shard = ring_.shard_for_key(key);
  co_return co_await inner_[shard]->attempt_get(std::move(key));
}

sim::Task<Status> ShardedKvClient::del_attempt(Bytes key) {
  const std::uint32_t shard = ring_.shard_for_key(key);
  co_return co_await inner_[shard]->attempt_del(std::move(key));
}

bool ShardedKvClient::has_batch_put() const noexcept {
  return inner_.front()->supports_batch_put();
}

/// Countdown join for the concurrent per-shard sub-batches.
struct ShardedKvClient::BatchJoin {
  explicit BatchJoin(sim::Simulator& sim) : done(sim) {}
  std::size_t remaining = 0;
  sim::Gate done;
};

sim::Task<std::vector<Status>> ShardedKvClient::put_batch_attempt(
    std::vector<PutOp>& ops, const std::vector<std::uint32_t>& op_ids) {
  // Group member indices by owning shard (stable: submission order within
  // each shard, ascending shard order for the spawns — deterministic).
  std::vector<std::vector<std::size_t>> groups(inner_.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    groups[ring_.shard_for_key(ops[i].key)].push_back(i);
  }
  std::vector<Status> out(ops.size());
  BatchJoin join{sim_};
  for (const std::vector<std::size_t>& group : groups) {
    if (!group.empty()) ++join.remaining;
  }
  if (join.remaining == 0) co_return out;
  for (std::size_t shard = 0; shard < groups.size(); ++shard) {
    if (groups[shard].empty()) continue;
    std::vector<std::uint32_t> sub_ids;
    sub_ids.reserve(groups[shard].size());
    for (const std::size_t i : groups[shard]) sub_ids.push_back(op_ids[i]);
    sim_.spawn(shard_batch_driver(shard, std::move(groups[shard]), &ops,
                                  std::move(sub_ids), &out, &join));
  }
  co_await join.done.wait();
  co_return out;
}

sim::Task<void> ShardedKvClient::shard_batch_driver(
    std::size_t shard, std::vector<std::size_t> idxs,
    std::vector<PutOp>* ops, std::vector<std::uint32_t> sub_ids,
    std::vector<Status>* out, BatchJoin* join) {
  KvClient& inner = *inner_[shard];
  if (idxs.size() >= 2 && inner.supports_batch_put()) {
    // Copy the members into the sub-batch: put_batch's retry tail may
    // re-drive any of `ops` afterwards, so the shared attempt must not
    // consume them.
    std::vector<PutOp> sub;
    sub.reserve(idxs.size());
    for (const std::size_t i : idxs) {
      sub.push_back(PutOp{(*ops)[i].key, (*ops)[i].value});
    }
    std::vector<Status> statuses =
        co_await inner.attempt_put_batch(sub, sub_ids);
    EFAC_CHECK_MSG(statuses.size() == idxs.size(),
                   "sharded sub-batch must return one status per member");
    for (std::size_t j = 0; j < idxs.size(); ++j) {
      (*out)[idxs[j]] = std::move(statuses[j]);
    }
  } else {
    for (const std::size_t i : idxs) {
      (*out)[i] =
          co_await inner.attempt_put((*ops)[i].key, (*ops)[i].value);
    }
  }
  if (--join->remaining == 0) join->done.open();
}

}  // namespace efac::stores
