// Sharded-cluster coverage: consistent-hash ring stability and balance,
// growth-only key movement, cross-shard batch splits, partial per-shard
// fault injection re-entering the retry tail, per-shard crash+recovery
// with the sibling shards still serving, and the shard-prefixed flight-
// recorder actor tracks.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "stores/efactory.hpp"
#include "stores/sharding.hpp"
#include "workload/ycsb.hpp"

namespace efac::stores {
namespace {

// ------------------------------------------------------------- ring math

std::vector<Bytes> ring_keys(std::size_t count) {
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = count, .key_len = 32, .value_len = 64}};
  std::vector<Bytes> keys;
  keys.reserve(count);
  for (std::size_t k = 0; k < count; ++k) keys.push_back(wl.key_at(k));
  return keys;
}

TEST(ShardRingTest, MappingIsAPureFunctionOfTheArguments) {
  const ShardRing a{4, 0xABCDEF};
  const ShardRing b{4, 0xABCDEF};
  for (const Bytes& key : ring_keys(500)) {
    EXPECT_EQ(a.shard_for_key(key), b.shard_for_key(key));
  }
}

TEST(ShardRingTest, HashSeedReshufflesTheMapping) {
  const ShardRing a{4, 1};
  const ShardRing b{4, 2};
  std::size_t moved = 0;
  const std::vector<Bytes> keys = ring_keys(500);
  for (const Bytes& key : keys) {
    if (a.shard_for_key(key) != b.shard_for_key(key)) ++moved;
  }
  // A different seed is a different ring: most keys should move
  // (independent placements agree on ~1/4 of keys by chance).
  EXPECT_GT(moved, keys.size() / 2);
}

TEST(ShardRingTest, SingleShardAlwaysRoutesToZero) {
  const ShardRing degenerate;
  const ShardRing one{1, 0x1234};
  for (const Bytes& key : ring_keys(64)) {
    EXPECT_EQ(degenerate.shard_for_key(key), 0u);
    EXPECT_EQ(one.shard_for_key(key), 0u);
  }
}

TEST(ShardRingTest, VnodesKeepTheLoadRoughlyBalanced) {
  const ShardRing ring{4, 0x5A4DB01};
  std::vector<std::size_t> load(4, 0);
  const std::vector<Bytes> keys = ring_keys(2000);
  for (const Bytes& key : keys) ++load[ring.shard_for_key(key)];
  for (std::size_t s = 0; s < 4; ++s) {
    // 64 vnodes per shard keep every shard within loose bounds of the
    // fair share (25%): no shard starves, none owns a majority.
    EXPECT_GT(load[s], keys.size() / 10) << "shard " << s;
    EXPECT_LT(load[s], keys.size() / 2) << "shard " << s;
  }
}

TEST(ShardRingTest, GrowthOnlyMovesKeysToTheNewShard) {
  const ShardRing before{4, 0x5A4DB01};
  const ShardRing after{5, 0x5A4DB01};
  std::size_t moved = 0;
  const std::vector<Bytes> keys = ring_keys(2000);
  for (const Bytes& key : keys) {
    const std::uint32_t was = before.shard_for_key(key);
    const std::uint32_t now = after.shard_for_key(key);
    if (was != now) {
      ++moved;
      // Consistent hashing's defining property: existing points do not
      // move when points are added, so a key can only migrate TO the
      // newcomer — never between the survivors.
      EXPECT_EQ(now, 4u) << "key moved between surviving shards";
    }
  }
  EXPECT_GT(moved, 0u);          // the new shard takes ownership of keys…
  EXPECT_LT(moved, keys.size() / 2);  // …but only ~1/5 of them
}

// -------------------------------------------------------------- test bed

stores::StoreConfig small_store() {
  StoreConfig config;
  config.pool_bytes = 8 * sizeconst::kMiB;
  config.hash_buckets = 1u << 12;
  return config;
}

/// A started sharded cluster plus one routed client and synchronous
/// drivers (the sharded sibling of testutil::TestCluster).
struct ShardBed {
  sim::Simulator sim;
  ShardedCluster cluster;
  std::unique_ptr<KvClient> client;

  explicit ShardBed(ClusterConfig config,
                    ClientOptions client_options = {},
                    SystemKind kind = SystemKind::kEFactory)
      : cluster(make_sharded_cluster(sim, kind, std::move(config))) {
    cluster.start();
    client = cluster.make_client(client_options);
  }

  template <typename Pred>
  void run_until_done(Pred done, SimDuration slice = timeconst::kMillisecond,
                      int max_slices = 100'000) {
    for (int i = 0; i < max_slices; ++i) {
      if (done()) return;
      sim.run_until(sim.now() + slice);
    }
    EFAC_CHECK_MSG(done(), "simulation did not converge");
  }

  Status put_sync(KvClient& c, Bytes key, Bytes value) {
    std::optional<Status> result;
    sim.spawn([](KvClient& cl, Bytes k, Bytes v,
                 std::optional<Status>* out) -> sim::Task<void> {
      *out = co_await cl.put(std::move(k), std::move(v));
    }(c, std::move(key), std::move(value), &result));
    run_until_done([&] { return result.has_value(); });
    return *result;
  }

  Expected<Bytes> get_sync(KvClient& c, Bytes key) {
    std::optional<Expected<Bytes>> result;
    sim.spawn([](KvClient& cl, Bytes k,
                 std::optional<Expected<Bytes>>* out) -> sim::Task<void> {
      out->emplace(co_await cl.get(std::move(k)));
    }(c, std::move(key), &result));
    run_until_done([&] { return result.has_value(); });
    return *result;
  }

  std::vector<Status> put_batch_sync(std::vector<KvClient::PutOp> ops) {
    std::optional<std::vector<Status>> result;
    sim.spawn([](KvClient& cl, std::vector<KvClient::PutOp> batch,
                 std::optional<std::vector<Status>>* out) -> sim::Task<void> {
      out->emplace(co_await cl.put_batch(std::move(batch)));
    }(*client, std::move(ops), &result));
    run_until_done([&] { return result.has_value(); });
    return *result;
  }

  std::vector<Expected<Bytes>> get_batch_sync(std::vector<Bytes> keys) {
    std::optional<std::vector<Expected<Bytes>>> result;
    sim.spawn([](KvClient& cl, std::vector<Bytes> batch,
                 std::optional<std::vector<Expected<Bytes>>>* out)
                  -> sim::Task<void> {
      out->emplace(co_await cl.get_batch(std::move(batch)));
    }(*client, std::move(keys), &result));
    run_until_done([&] { return result.has_value(); });
    return *result;
  }

  /// Wait for every shard's background verifier to drain.
  void drain_verifiers() {
    run_until_done([this] {
      for (const Cluster& shard : cluster.shards) {
        const auto* efac =
            dynamic_cast<const EFactoryStore*>(shard.store.get());
        if (efac != nullptr && efac->verify_queue_depth() != 0) return false;
      }
      return true;
    });
    sim.run_until(sim.now() + 500 * timeconst::kMicrosecond);
  }
};

ClusterConfig four_shards() {
  ClusterConfig config;
  config.num_shards = 4;
  config.store = small_store();
  return config;
}

ClientOptions hinted_options() {
  ClientOptions options;
  options.size_hint = {32, 256};
  return options;
}

workload::Workload test_workload(std::size_t keys) {
  return workload::Workload{workload::WorkloadConfig{
      .key_count = keys, .key_len = 32, .value_len = 256}};
}

// ------------------------------------------------------- routed clients

TEST(ShardedClusterTest, SingleShardClientIsThePlainProtocolClient) {
  ClusterConfig config;
  config.num_shards = 1;
  config.store = small_store();
  ShardBed bed{std::move(config), hinted_options()};
  // Bit-identity depends on there being NO wrapper in the path.
  EXPECT_EQ(dynamic_cast<ShardedKvClient*>(bed.client.get()), nullptr);

  ShardBed sharded{four_shards(), hinted_options()};
  auto* routed = dynamic_cast<ShardedKvClient*>(sharded.client.get());
  ASSERT_NE(routed, nullptr);
  EXPECT_EQ(routed->num_shards(), 4u);
}

TEST(ShardedClusterTest, CrossShardBatchSplitRoundTrips) {
  ShardBed bed{four_shards(), hinted_options()};
  const workload::Workload wl = test_workload(32);

  std::vector<KvClient::PutOp> ops;
  std::set<std::uint32_t> shards_hit;
  for (int k = 0; k < 32; ++k) {
    ops.push_back({wl.key_at(k), wl.value_for(k, 1)});
    shards_hit.insert(bed.cluster.shard_for_key(wl.key_at(k)));
  }
  // 32 hashed keys over 4 shards: the batch must genuinely split.
  ASSERT_EQ(shards_hit.size(), 4u);

  const std::vector<Status> statuses = bed.put_batch_sync(std::move(ops));
  ASSERT_EQ(statuses.size(), 32u);
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    EXPECT_TRUE(statuses[i].is_ok()) << "member " << i;
  }
  bed.drain_verifiers();

  // Every shard served part of the batch…
  for (std::size_t s = 0; s < bed.cluster.num_shards(); ++s) {
    EXPECT_GT(bed.cluster.store(s).server_stats().requests, 0u)
        << "shard " << s;
  }
  // …and the routed get_batch reassembles the values in order.
  std::vector<Bytes> keys;
  for (int k = 0; k < 32; ++k) keys.push_back(wl.key_at(k));
  const std::vector<Expected<Bytes>> got =
      bed.get_batch_sync(std::move(keys));
  ASSERT_EQ(got.size(), 32u);
  for (int k = 0; k < 32; ++k) {
    ASSERT_TRUE(got[static_cast<std::size_t>(k)].has_value()) << "key " << k;
    EXPECT_EQ(*got[static_cast<std::size_t>(k)], wl.value_for(k, 1))
        << "key " << k;
  }

  // The routed client's merged registry sums the per-shard protocol
  // clients (which count the attempts) and its own engine counters.
  metrics::MetricsRegistry merged;
  bed.client->merge_metrics_into(merged, {});
  EXPECT_EQ(merged.find_counter("client.puts")->value(), 32u);
  EXPECT_EQ(merged.find_counter("client.gets")->value(), 32u);
  // One put_batch + one get_batch.
  EXPECT_GE(merged.find_counter("client.batches")->value(), 2u);
}

TEST(ShardedClusterTest, PartialShardFaultReentersRetryTail) {
  // Torn writes on shard 1 ONLY: its first two acks are lost (kTimeout on
  // those members), every other shard stays healthy. The batch members
  // that landed on shard 1 re-enter the per-op retry tail and the batch
  // still reports all-ok.
  ClusterConfig config = four_shards();
  const Expected<fault::FaultPlan> plan = fault::FaultPlan::parse(
      "name = shard1-torn\nseed = 3\nfault write_torn every=1 max=2 mag=0\n");
  ASSERT_TRUE(plan.has_value()) << plan.status().message();
  config.shard_fault_plans.resize(4);
  config.shard_fault_plans[1] = *plan;

  ClientOptions options = hinted_options();
  options.retry.max_attempts = 4;
  options.retry.rpc_timeout_ns = 60 * timeconst::kMicrosecond;
  options.retry.backoff_base_ns = 2 * timeconst::kMicrosecond;
  options.retry.backoff_cap_ns = 50 * timeconst::kMicrosecond;
  options.retry.jitter = 0.0;
  ShardBed bed{std::move(config), options};
  const workload::Workload wl = test_workload(64);

  std::vector<KvClient::PutOp> ops;
  std::vector<int> members;
  std::size_t on_faulted_shard = 0;
  for (int k = 0; k < 64 && ops.size() < 24; ++k) {
    const std::uint32_t shard = bed.cluster.shard_for_key(wl.key_at(k));
    if (shard == 1) ++on_faulted_shard;
    ops.push_back({wl.key_at(k), wl.value_for(k, 1)});
    members.push_back(k);
  }
  ASSERT_GT(on_faulted_shard, 0u) << "no batch member routed to shard 1";

  const std::vector<Status> statuses = bed.put_batch_sync(std::move(ops));
  ASSERT_EQ(statuses.size(), members.size());
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    EXPECT_TRUE(statuses[i].is_ok()) << "member " << i;
  }
  // The faulted shard actually fired, the others never armed.
  EXPECT_GT(bed.cluster.store(1).injector().fires(fault::Site::kWriteTorn),
            0u);
  for (const std::size_t s : {0u, 2u, 3u}) {
    EXPECT_FALSE(bed.cluster.store(s).injector().enabled()) << "shard " << s;
  }
  // Recovery went through the retry engine, not through luck.
  EXPECT_GE(bed.client->stats().retries, 1u);
  EXPECT_EQ(bed.client->stats().giveups, 0u);

  bed.drain_verifiers();
  for (const int k : members) {
    const Expected<Bytes> got = bed.get_sync(*bed.client, wl.key_at(k));
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(*got, wl.value_for(k, 1)) << "key " << k;
  }
}

TEST(ShardedClusterTest, ShardCrashLeavesSiblingsServing) {
  ShardBed bed{four_shards(), hinted_options()};
  const workload::Workload wl = test_workload(32);
  for (int k = 0; k < 32; ++k) {
    ASSERT_TRUE(
        bed.put_sync(*bed.client, wl.key_at(k), wl.value_for(k, 1)).is_ok());
  }
  bed.drain_verifiers();

  constexpr std::uint32_t kVictim = 2;
  bed.cluster.store(kVictim).crash();

  // Keys owned by the surviving shards keep serving while the victim is
  // down — shard failure is not cluster failure.
  std::size_t survivors_read = 0;
  for (int k = 0; k < 32; ++k) {
    if (bed.cluster.shard_for_key(wl.key_at(k)) == kVictim) continue;
    const Expected<Bytes> got = bed.get_sync(*bed.client, wl.key_at(k));
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(*got, wl.value_for(k, 1)) << "key " << k;
    ++survivors_read;
  }
  EXPECT_GT(survivors_read, 0u);

  // Online recovery of the victim restores full-cluster service: a fresh
  // routed client reads every key, including the recovered shard's.
  ASSERT_TRUE(bed.cluster.store(kVictim).restart());
  auto fresh = bed.cluster.make_client(hinted_options());
  for (int k = 0; k < 32; ++k) {
    const Expected<Bytes> got = bed.get_sync(*fresh, wl.key_at(k));
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(*got, wl.value_for(k, 1)) << "key " << k;
  }
}

// ------------------------------------------------------ trace attribution

TEST(ShardedClusterTest, FlightRecorderTracksCarryShardPrefixes) {
  ClusterConfig config;
  config.num_shards = 2;
  config.store = small_store();
  config.store.trace.enabled = true;
  ShardBed bed{std::move(config), hinted_options()};

  for (std::size_t s = 0; s < bed.cluster.num_shards(); ++s) {
    trace::EventLog* log = bed.cluster.store(s).trace_log();
    ASSERT_NE(log, nullptr) << "shard " << s;
    std::string prefix = "s";
    prefix.append(std::to_string(s)).push_back('/');
    ASSERT_FALSE(log->tracks().empty()) << "shard " << s;
    for (const std::string& track : log->tracks()) {
      EXPECT_EQ(track.rfind(prefix, 0), 0u)
          << "shard " << s << " track '" << track << "'";
    }
  }
}

}  // namespace
}  // namespace efac::stores
