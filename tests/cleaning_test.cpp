// Deep tests of eFactory's two-stage log cleaning (paper §4.4, Fig. 7):
// entry/mark bookkeeping, the transfer flag, writes racing each stage,
// the merge skip rule, repeated rounds, and crash-during-cleaning.
#include <gtest/gtest.h>

#include "stores/efactory.hpp"
#include "store_test_util.hpp"

namespace efac::stores {
namespace {

using testutil::make_value;
using testutil::TestCluster;

constexpr std::size_t kVlen = 256;

struct CleaningFixture : ::testing::Test {
  TestCluster tc{SystemKind::kEFactory,
                 testutil::small_config(), testutil::hinted(32, kVlen)};
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 64, .key_len = 32, .value_len = kVlen}};

  EFactoryStore& store() {
    return *dynamic_cast<EFactoryStore*>(tc.cluster.store.get());
  }

  void load(int keys, int versions = 1) {
    for (int v = 1; v <= versions; ++v) {
      for (int k = 0; k < keys; ++k) {
        ASSERT_TRUE(
            tc.put_sync(wl.key_at(k), wl.value_for(k, v)).is_ok());
      }
    }
    tc.run_until_done([&] { return store().verify_queue_depth() == 0; });
    tc.settle();
  }

  void run_one_round() {
    store().force_log_cleaning();
    tc.run_until_done([&] { return !store().cleaning_active(); });
  }
};

TEST_F(CleaningFixture, RoundMigratesAllLiveKeys) {
  load(32);
  const std::uint64_t before = store().server_stats().cleaned_objects;
  run_one_round();
  EXPECT_GE(store().server_stats().cleaned_objects, before + 32);
  EXPECT_EQ(store().server_stats().cleanings, 1u);
  for (int k = 0; k < 32; ++k) {
    const Expected<Bytes> got = tc.get_sync(wl.key_at(k));
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(*got, wl.value_for(k, 1));
  }
}

TEST_F(CleaningFixture, RoundFlipsMarkBitOnLiveEntries) {
  load(8);
  for (int k = 0; k < 8; ++k) {
    const auto slot = store().dir().find(kv::hash_key(wl.key_at(k)));
    ASSERT_TRUE(slot.has_value());
    EXPECT_FALSE(store().dir().read(*slot).mark);
  }
  run_one_round();
  for (int k = 0; k < 8; ++k) {
    const auto slot = store().dir().find(kv::hash_key(wl.key_at(k)));
    const kv::HashDir::Entry entry = store().dir().read(*slot);
    EXPECT_TRUE(entry.mark) << "key " << k;
    EXPECT_EQ(entry.off_old, 0u);          // retired-pool offset cleared
    EXPECT_NE(entry.off_new, 0u);          // new-pool head installed
    EXPECT_TRUE(store().shadow_pool().contains(entry.off_new) ||
                store().working_pool().contains(entry.off_new));
  }
}

TEST_F(CleaningFixture, SourceVersionsGetTransferFlag) {
  load(4);
  // Snapshot pre-cleaning head offsets.
  std::vector<MemOffset> heads;
  for (int k = 0; k < 4; ++k) {
    const auto slot = store().dir().find(kv::hash_key(wl.key_at(k)));
    heads.push_back(store().dir().read(*slot).current());
  }
  run_one_round();
  // The sources (still physically present in the retired pool's bytes
  // until overwritten) carry the transfer flag.
  for (const MemOffset off : heads) {
    const kv::ObjectMeta meta =
        kv::ObjectRef{store().arena(), off}.read_header();
    EXPECT_TRUE(meta.transferred);
  }
}

TEST_F(CleaningFixture, StaleVersionsAreReclaimed) {
  load(16, /*versions=*/6);  // 96 objects, 16 live
  const std::size_t used_before = store().working_pool().used();
  run_one_round();
  // Only heads migrate: the new working pool holds ~16 objects.
  EXPECT_LT(store().working_pool().used(), used_before / 3);
}

TEST_F(CleaningFixture, RepeatedRoundsAlternatePools) {
  load(8);
  const MemOffset pool_a_base = store().pool_a().base();
  run_one_round();
  EXPECT_EQ(store().working_pool().base(), store().pool_b().base());
  run_one_round();
  EXPECT_EQ(store().working_pool().base(), pool_a_base);
  for (int k = 0; k < 8; ++k) {
    EXPECT_TRUE(tc.get_sync(wl.key_at(k)).has_value());
  }
}

TEST_F(CleaningFixture, ClientsSwitchToRpcReadsDuringCleaning) {
  load(8);
  auto reader = tc.cluster.make_client(testutil::hinted(32, kVlen));
  store().force_log_cleaning();
  // While cleaning runs, reads must use the RPC path.
  ASSERT_TRUE(store().clients_use_rpc());
  const Expected<Bytes> got = tc.get_sync(*reader, wl.key_at(0));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(reader->stats().gets_rpc_path, 1u);
  EXPECT_EQ(reader->stats().gets_pure_rdma, 0u);
  tc.run_until_done([&] { return !store().cleaning_active(); });
  // Afterwards, the hybrid read resumes.
  ASSERT_TRUE(tc.get_sync(*reader, wl.key_at(0)).has_value());
  EXPECT_EQ(reader->stats().gets_pure_rdma, 1u);
}

TEST_F(CleaningFixture, WritesDuringCleaningSurvive) {
  load(32);
  // Start cleaning, then overwrite a batch of keys while it runs.
  store().force_log_cleaning();
  int acked = 0;
  tc.sim.spawn([](KvClient& c, workload::Workload& w,
                  int* done) -> sim::Task<void> {
    for (int k = 0; k < 32; ++k) {
      const Status s = co_await c.put(w.key_at(k), w.value_for(k, 99));
      if (s.is_ok()) ++*done;
    }
  }(*tc.client, wl, &acked));
  tc.run_until_done([&] { return !store().cleaning_active() && acked == 32; });
  tc.settle();
  for (int k = 0; k < 32; ++k) {
    const Expected<Bytes> got = tc.get_sync(wl.key_at(k));
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(*got, wl.value_for(k, 99)) << "lost update on key " << k;
  }
}

TEST_F(CleaningFixture, NewKeysInsertedDuringCleaningSurvive) {
  load(16);
  store().force_log_cleaning();
  // Insert brand-new keys (slots the compress snapshot never saw).
  for (int k = 40; k < 48; ++k) {
    ASSERT_TRUE(tc.put_sync(wl.key_at(k), wl.value_for(k, 1)).is_ok());
  }
  tc.run_until_done([&] { return !store().cleaning_active(); });
  tc.settle();
  for (int k = 40; k < 48; ++k) {
    const Expected<Bytes> got = tc.get_sync(wl.key_at(k));
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(*got, wl.value_for(k, 1));
  }
}

TEST_F(CleaningFixture, ForceWhileActiveIsNoop) {
  load(8);
  store().force_log_cleaning();
  ASSERT_TRUE(store().cleaning_active());
  store().force_log_cleaning();  // must not double-start
  tc.run_until_done([&] { return !store().cleaning_active(); });
  EXPECT_EQ(store().server_stats().cleanings, 1u);
}

// ------------------------------------- overwrites racing the merge stage

// Client A overwrites each key with v2 while a round runs, and client B
// overwrites the same key with v3 a parameterised gap after A's ack. When
// B's PUT lands in the shadow pool while the merge stage waits for A's
// working-pool head to become verifiable, the merge must not install a
// copy of that older head in front of it: every key reads v3 afterwards.
class MergeOverwriteRace : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(GapSweep, MergeOverwriteRace,
                         ::testing::Range(0, 120));

TEST_P(MergeOverwriteRace, LatestAckedWriteSurvivesTheRound) {
  constexpr std::size_t kBigValue = 4096;
  constexpr int kKeys = 32;
  TestCluster tc{SystemKind::kEFactory, testutil::small_config(),
                 testutil::hinted(32, kBigValue)};
  auto& store = *dynamic_cast<EFactoryStore*>(tc.cluster.store.get());
  auto second = tc.cluster.make_client(testutil::hinted(32, kBigValue));
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = kKeys, .key_len = 32, .value_len = kBigValue}};
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(tc.put_sync(wl.key_at(k), wl.value_for(k, 1)).is_ok());
  }
  tc.run_until_done([&] { return store.verify_queue_depth() == 0; });
  tc.settle();

  store.force_log_cleaning();
  const SimDuration gap = 97 * static_cast<SimDuration>(GetParam());
  bool done = false;
  tc.sim.spawn([](sim::Simulator& sim, KvClient& a, KvClient& b,
                  workload::Workload& w, SimDuration pause,
                  bool* finished) -> sim::Task<void> {
    for (int k = 0; k < kKeys; ++k) {
      EXPECT_TRUE((co_await a.put(w.key_at(k), w.value_for(k, 2))).is_ok());
      co_await sim::delay(sim, pause);
      EXPECT_TRUE((co_await b.put(w.key_at(k), w.value_for(k, 3))).is_ok());
    }
    *finished = true;
  }(tc.sim, *tc.client, *second, wl, gap, &done));
  tc.run_until_done([&] { return done && !store.cleaning_active(); });
  tc.settle();

  for (int k = 0; k < kKeys; ++k) {
    const Expected<Bytes> got = tc.get_sync(wl.key_at(k));
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(*got, wl.value_for(k, 3)) << "lost update on key " << k;
  }
}

// ------------------------------------------------ crash during cleaning

class CrashDuringCleaning : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sweep, CrashDuringCleaning,
                         ::testing::Range(0, 10));

TEST_P(CrashDuringCleaning, EveryKeyRecoversIntact) {
  TestCluster tc{SystemKind::kEFactory,
                 testutil::small_config(), testutil::hinted(32, kVlen)};
  auto& store = *dynamic_cast<EFactoryStore*>(tc.cluster.store.get());
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 24, .key_len = 32, .value_len = kVlen}};
  for (int k = 0; k < 24; ++k) {
    ASSERT_TRUE(tc.put_sync(wl.key_at(k), wl.value_for(k, 1)).is_ok());
  }
  tc.run_until_done([&] { return store.verify_queue_depth() == 0; });
  tc.settle();

  // Kick off cleaning plus a concurrent writer, then crash at a
  // parameterized instant somewhere inside the round.
  store.force_log_cleaning();
  tc.sim.spawn([](KvClient& c, workload::Workload& w) -> sim::Task<void> {
    for (int k = 0; k < 24; ++k) {
      static_cast<void>(co_await c.put(w.key_at(k), w.value_for(k, 2)));
    }
  }(*tc.client, wl));
  const SimTime crash_at =
      tc.sim.now() + 10'000 + static_cast<SimTime>(GetParam()) * 37'003;
  tc.sim.run_until(crash_at);
  store.arena().crash(nvm::CrashPolicy{.eviction_probability = 0.3});

  // Every key must recover to v1 or v2 — exactly, never torn, never lost.
  for (int k = 0; k < 24; ++k) {
    const Expected<Bytes> got = store.recover_get(wl.key_at(k));
    ASSERT_TRUE(got.has_value())
        << "key " << k << " lost (crash at " << crash_at << ")";
    EXPECT_TRUE(*got == wl.value_for(k, 1) || *got == wl.value_for(k, 2))
        << "key " << k << " recovered torn bytes";
  }
}

}  // namespace
}  // namespace efac::stores
