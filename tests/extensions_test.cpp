// Tests for the extensions beyond the paper's core evaluation:
//   * DELETE via tombstone versions (reclaimed by log cleaning),
//   * full server restart (EFactoryStore::recover()),
//   * the future-hardware Rcommit store (RDMA Durable Write Commit).
#include <gtest/gtest.h>

#include <cstdio>
#include <map>

#include "stores/efactory.hpp"
#include "stores/rcommit.hpp"
#include "store_test_util.hpp"

namespace efac::stores {
namespace {

using testutil::make_value;
using testutil::TestCluster;

Status del_sync(TestCluster& tc, KvClient& c, Bytes key) {
  std::optional<Status> result;
  tc.sim.spawn([](KvClient& cl, Bytes k,
                  std::optional<Status>* out) -> sim::Task<void> {
    *out = co_await cl.del(std::move(k));
  }(c, std::move(key), &result));
  tc.run_until_done([&] { return result.has_value(); });
  return *result;
}

// ----------------------------------------------------------------- delete

struct DeleteFixture : ::testing::Test {
  // Declared before tc so the size hint can read their geometry.
  const Bytes key = to_bytes("delete-me-key-0000000000000000000");
  const Bytes value = make_value(256, 1);
  TestCluster tc{SystemKind::kEFactory, testutil::small_config(),
                 testutil::hinted(key.size(), value.size())};
  EFactoryStore& store() {
    return *dynamic_cast<EFactoryStore*>(tc.cluster.store.get());
  }

  void SetUp() override {
    ASSERT_TRUE(tc.put_sync(key, value).is_ok());
    tc.settle();
  }
};

TEST_F(DeleteFixture, DeletedKeyIsNotFound) {
  ASSERT_TRUE(tc.get_sync(key).has_value());
  EXPECT_TRUE(del_sync(tc, *tc.client, key).is_ok());
  const Expected<Bytes> got = tc.get_sync(key);
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(got.code(), StatusCode::kNotFound);
}

TEST_F(DeleteFixture, DeleteOfAbsentKeyIsNotFound) {
  EXPECT_EQ(del_sync(tc, *tc.client,
                     to_bytes("never-existed-key-000000000000000"))
                .code(),
            StatusCode::kNotFound);
}

TEST_F(DeleteFixture, DeleteSurvivesCrash) {
  ASSERT_TRUE(del_sync(tc, *tc.client, key).is_ok());
  // Harshest crash immediately after the delete ack.
  store().arena().crash(nvm::CrashPolicy{.eviction_probability = 0.0});
  const Expected<Bytes> got = store().recover_get(key);
  EXPECT_FALSE(got.has_value())
      << "deleted key resurrected after crash";
}

TEST_F(DeleteFixture, PutAfterDeleteResurrectsKey) {
  ASSERT_TRUE(del_sync(tc, *tc.client, key).is_ok());
  const Bytes fresh = make_value(256, 9);
  ASSERT_TRUE(tc.put_sync(key, fresh).is_ok());
  tc.settle();
  const Expected<Bytes> got = tc.get_sync(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, fresh);
}

TEST_F(DeleteFixture, PureRdmaReadObservesTombstone) {
  ASSERT_TRUE(del_sync(tc, *tc.client, key).is_ok());
  tc.settle();
  auto reader = tc.cluster.make_client(testutil::hinted(key.size(), value.size()));
  const Expected<Bytes> got = tc.get_sync(*reader, key);
  EXPECT_FALSE(got.has_value());
  // The tombstone was detected on the one-sided path (no RPC needed).
  EXPECT_EQ(reader->stats().gets_pure_rdma, 1u);
  EXPECT_EQ(reader->stats().gets_rpc_path, 0u);
}

TEST_F(DeleteFixture, CleaningReclaimsDeletedKeys) {
  ASSERT_TRUE(del_sync(tc, *tc.client, key).is_ok());
  tc.settle();
  store().force_log_cleaning();
  tc.run_until_done([&] { return !store().cleaning_active(); });
  // The entry was cleared entirely: no offsets survive the round.
  const auto slot = store().dir().find(kv::hash_key(key));
  if (slot.has_value()) {
    const kv::HashDir::Entry entry = store().dir().read(*slot);
    EXPECT_EQ(entry.off_old, 0u);
    EXPECT_EQ(entry.off_new, 0u);
  }
  EXPECT_EQ(tc.get_sync(key).code(), StatusCode::kNotFound);
}

TEST(DeleteUnsupported, BaselinesReturnUnimplemented) {
  TestCluster tc{SystemKind::kErda,
                 testutil::small_config(), testutil::hinted(32, 64)};
  EXPECT_EQ(del_sync(tc, *tc.client,
                     to_bytes("some-key-000000000000000000000000"))
                .code(),
            StatusCode::kUnimplemented);
}

// ---------------------------------------------------------------- restart

struct RestartFixture : ::testing::Test {
  TestCluster tc{SystemKind::kEFactory,
                 testutil::small_config(), testutil::hinted(32, 256)};
  EFactoryStore& store() {
    return *dynamic_cast<EFactoryStore*>(tc.cluster.store.get());
  }
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 32, .key_len = 32, .value_len = 256}};

  /// Rogue alloc with no data write: a torn head version of `key`.
  void torn_alloc(Bytes key) {
    rpc::Connection rogue{tc.sim, store().fabric(), store().node(),
                          store().directory(), store().next_qp_id()};
    AllocRequest req;
    req.klen = 32;
    req.vlen = 256;
    req.crc = 0xBAD;
    req.key = std::move(key);
    bool done = false;
    tc.sim.spawn([](rpc::Connection& c, AllocRequest r,
                    bool* flag) -> sim::Task<void> {
      static_cast<void>(co_await c.call(kAlloc, r.encode()));
      *flag = true;
    }(rogue, req, &done));
    tc.run_until_done([&] { return done; });
  }
};

TEST_F(RestartFixture, RecoverRebuildsAndServes) {
  for (std::uint64_t k = 0; k < 32; ++k) {
    ASSERT_TRUE(tc.put_sync(wl.key_at(k), wl.value_for(k, 1)).is_ok());
  }
  tc.run_until_done([&] { return store().verify_queue_depth() == 0; });
  tc.settle();

  store().crash();
  const EFactoryStore::RecoveryReport report = store().recover();
  EXPECT_EQ(report.keys_recovered, 32u);
  EXPECT_EQ(report.keys_lost, 0u);

  // The restarted server answers reads (pure-RDMA: recovered objects come
  // up flagged) and accepts new writes.
  auto client = tc.cluster.make_client(testutil::hinted(32, 256));
  for (std::uint64_t k = 0; k < 32; ++k) {
    const Expected<Bytes> got = tc.get_sync(*client, wl.key_at(k));
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(*got, wl.value_for(k, 1));
  }
  EXPECT_EQ(client->stats().gets_pure_rdma, 32u);
  ASSERT_TRUE(tc.put_sync(*client, wl.key_at(0), wl.value_for(0, 2)).is_ok());
  tc.settle();
  EXPECT_EQ(*tc.get_sync(*client, wl.key_at(0)), wl.value_for(0, 2));
}

TEST_F(RestartFixture, RecoverCompactsPools) {
  // Ten overwrites per key: the log holds ~320 versions.
  for (int round = 1; round <= 10; ++round) {
    for (std::uint64_t k = 0; k < 32; ++k) {
      ASSERT_TRUE(
          tc.put_sync(wl.key_at(k), wl.value_for(k, round)).is_ok());
    }
  }
  tc.settle();
  const std::size_t used_before = store().working_pool().used();
  store().crash();
  static_cast<void>(store().recover());
  // Only the 32 newest versions survive compaction.
  EXPECT_LT(store().working_pool().used(), used_before / 5);
  EXPECT_GT(store().working_pool().used(), 0u);
}

TEST_F(RestartFixture, RecoverDropsTornHeadsKeepsOlder) {
  ASSERT_TRUE(tc.put_sync(wl.key_at(7), wl.value_for(7, 1)).is_ok());
  tc.run_until_done([&] { return store().verify_queue_depth() == 0; });
  torn_alloc(wl.key_at(7));

  store().crash();
  const EFactoryStore::RecoveryReport report = store().recover();
  EXPECT_GE(report.versions_discarded, 1u);
  auto client = tc.cluster.make_client(testutil::hinted(32, 256));
  const Expected<Bytes> got = tc.get_sync(*client, wl.key_at(7));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, wl.value_for(7, 1));
}

TEST_F(RestartFixture, RecoverClearsLostKeyAheadOfDisplacedLiveKey) {
  // Two keys with one ideal slot: the first claims it, the second is
  // displaced to the next slot of the same probe chain.
  Bytes lost;
  Bytes live;
  std::map<std::size_t, Bytes> first_at_slot;
  for (int i = 0; live.empty(); ++i) {
    char name[33];
    std::snprintf(name, sizeof name, "probe-chain-key-%016d", i);
    Bytes key = to_bytes(name);
    const auto [it, fresh] = first_at_slot.emplace(
        store().dir().ideal_slot(kv::hash_key(key)), key);
    if (!fresh) {
      lost = it->second;
      live = std::move(key);
    }
  }

  // The lost key's only version is torn; the live key sits behind it.
  torn_alloc(lost);
  const Bytes value = make_value(256, 5);
  ASSERT_TRUE(tc.put_sync(live, value).is_ok());
  tc.run_until_done([&] { return store().verify_queue_depth() == 0; });
  const Expected<std::size_t> lost_slot =
      store().dir().find(kv::hash_key(lost));
  ASSERT_TRUE(lost_slot.has_value());
  ASSERT_EQ(*store().dir().find(kv::hash_key(live)),
            (*lost_slot + 1) % store().dir().bucket_count());

  store().crash();
  const EFactoryStore::RecoveryReport report = store().recover();
  EXPECT_EQ(report.keys_recovered, 1u);
  EXPECT_EQ(report.keys_lost, 1u);
  // The lost key keeps its slot (it still extends the probe chain) with
  // no version left to point at.
  const kv::HashDir::Entry entry = store().dir().read(*lost_slot);
  EXPECT_EQ(entry.key_hash, kv::hash_key(lost));
  EXPECT_EQ(entry.off_old, 0u);
  EXPECT_EQ(entry.off_new, 0u);
  auto client = tc.cluster.make_client(testutil::hinted(32, 256));
  const Expected<Bytes> got = tc.get_sync(*client, live);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  EXPECT_EQ(*got, value);
}

TEST_F(RestartFixture, RecoverPreservesDeletes) {
  ASSERT_TRUE(tc.put_sync(wl.key_at(3), wl.value_for(3, 1)).is_ok());
  ASSERT_TRUE(del_sync(tc, *tc.client, wl.key_at(3)).is_ok());
  tc.settle();
  store().crash();
  const EFactoryStore::RecoveryReport report = store().recover();
  EXPECT_GE(report.tombstones_dropped, 1u);
  auto client = tc.cluster.make_client(testutil::hinted(32, 256));
  EXPECT_EQ(tc.get_sync(*client, wl.key_at(3)).code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------- rcommit

struct RcommitFixture : ::testing::Test {
  TestCluster tc{SystemKind::kRcommit};
  RcommitStore& store() {
    return *dynamic_cast<RcommitStore*>(tc.cluster.store.get());
  }
  // Per-test geometries differ, so each test swaps in a hinted client.
  void hint(std::size_t klen, std::size_t vlen) {
    tc.client = tc.cluster.make_client(testutil::hinted(klen, vlen));
  }
};

TEST_F(RcommitFixture, PutGetRoundtrip) {
  const Bytes key = to_bytes("rcommit-key-000000000000000000000");
  const Bytes value = make_value(512, 4);
  hint(key.size(), value.size());
  ASSERT_TRUE(tc.put_sync(key, value).is_ok());
  const Expected<Bytes> got = tc.get_sync(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, value);
}

TEST_F(RcommitFixture, DurableAtAck) {
  const Bytes key = to_bytes("rcommit-durable-key-0000000000000");
  const Bytes value = make_value(1024, 5);
  hint(key.size(), value.size());
  ASSERT_TRUE(tc.put_sync(key, value).is_ok());
  store().arena().crash(nvm::CrashPolicy{.eviction_probability = 0.0});
  const Expected<Bytes> got = store().recover_get(key);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  EXPECT_EQ(*got, value);
}

TEST_F(RcommitFixture, NoServerCpuAfterAlloc) {
  const Bytes key = to_bytes("rcommit-cpu-key-00000000000000000");
  const Bytes value = make_value(256, 6);
  hint(key.size(), value.size());
  const std::uint64_t requests_before = store().server_stats().requests;
  ASSERT_TRUE(tc.put_sync(key, value).is_ok());
  // Exactly one server request (the alloc); durability was all one-sided.
  EXPECT_EQ(store().server_stats().requests, requests_before + 1);
  EXPECT_GE(tc.client->stats().puts, 1u);
}

TEST_F(RcommitFixture, DurableWriteBeatsSawLatency) {
  // The whole point of the proposed verb: a durable write without the
  // send-after-write round trip and server flush.
  auto measure = [](SystemKind kind) {
    TestCluster probe{kind,
                      testutil::small_config(), testutil::hinted(32, 1024)};
    const Bytes key = to_bytes("latency-key-00000000000000000000");
    SimTime latency = 0;
    probe.sim.spawn([](sim::Simulator& s, KvClient& c, Bytes k,
                       SimTime* out) -> sim::Task<void> {
      // Warm up (first PUT claims the slot), then measure in-coroutine so
      // the result is exact virtual time, not run-slice-quantized.
      static_cast<void>(co_await c.put(Bytes(k), make_value(1024, 1)));
      const SimTime start = s.now();
      const Status st = co_await c.put(std::move(k), make_value(1024, 2));
      EXPECT_TRUE(st.is_ok());
      *out = s.now() - start;
    }(probe.sim, *probe.client, key, &latency));
    probe.run_until_done([&] { return latency != 0; });
    return latency;
  };
  const SimTime rcommit_ns = measure(SystemKind::kRcommit);
  const SimTime saw_ns = measure(SystemKind::kSaw);
  const SimTime imm_ns = measure(SystemKind::kImm);
  EXPECT_LT(rcommit_ns, saw_ns);
  EXPECT_LT(rcommit_ns, imm_ns);
}

TEST_F(RcommitFixture, OverwritesKeepLatestVisible) {
  const Bytes key = to_bytes("rcommit-over-key-0000000000000000");
  hint(key.size(), 128);
  for (std::uint8_t round = 1; round <= 4; ++round) {
    ASSERT_TRUE(tc.put_sync(key, make_value(128, round)).is_ok());
  }
  const Expected<Bytes> got = tc.get_sync(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, make_value(128, 4));
}

// ----------------------------------------------------- verb-level commit

TEST(CommitVerb, FlushesExactRegionAtResponder) {
  sim::Simulator sim;
  nvm::Arena arena{sim, 64 * sizeconst::kKiB};
  rdma::Fabric fabric{[] {
    rdma::FabricConfig cfg;
    cfg.jitter_sigma = 0.0;
    return cfg;
  }()};
  rdma::Node server{sim, &arena};
  const std::uint32_t rkey =
      server.register_mr(0, 32 * sizeconst::kKiB, rdma::Access::kReadWrite);
  rdma::QueuePair qp{sim, fabric, server, 1};

  Bytes data(256);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  sim.spawn([](rdma::QueuePair& q, std::uint32_t key, nvm::Arena& a,
               const Bytes& d) -> sim::Task<void> {
    static_cast<void>(q.post_write(key, 1024, d));
    const Expected<Unit> c = co_await q.commit(key, 1024, d.size());
    EXPECT_TRUE(c.has_value());
    // The region is durable at ack.
    EXPECT_EQ(a.persisted_bytes(1024, d.size()), d);
  }(qp, rkey, arena, data));
  sim.run();
  EXPECT_EQ(qp.stats().commits, 1u);
}

TEST(CommitVerb, RespectsMrProtection) {
  sim::Simulator sim;
  nvm::Arena arena{sim, 4096};
  rdma::Fabric fabric;
  rdma::Node server{sim, &arena};
  const std::uint32_t ro = server.register_mr(0, 4096, rdma::Access::kRead);
  rdma::QueuePair qp{sim, fabric, server, 1};
  sim.spawn([](rdma::QueuePair& q, std::uint32_t key) -> sim::Task<void> {
    const Expected<Unit> c = co_await q.commit(key, 0, 64);
    EXPECT_EQ(c.code(), StatusCode::kPermission);
  }(qp, ro));
  sim.run();
}

}  // namespace
}  // namespace efac::stores
