// Restart coverage beyond extensions_test: full server restart after a
// crash in the middle of a log-cleaning round, restart of an empty store,
// and stats-report smoke checks.
#include <gtest/gtest.h>

#include <sstream>

#include "stores/efactory.hpp"
#include "stores/stats_report.hpp"
#include "store_test_util.hpp"

namespace efac::stores {
namespace {

using testutil::TestCluster;

class RestartMidCleaning : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(CrashInstants, RestartMidCleaning,
                         ::testing::Range(0, 6));

TEST_P(RestartMidCleaning, FullRestartServesEveryKey) {
  TestCluster tc{SystemKind::kEFactory,
                 testutil::small_config(), testutil::hinted(32, 512)};
  auto& store = *dynamic_cast<EFactoryStore*>(tc.cluster.store.get());
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 24, .key_len = 32, .value_len = 512}};
  for (int k = 0; k < 24; ++k) {
    ASSERT_TRUE(tc.put_sync(wl.key_at(k), wl.value_for(k, 1)).is_ok());
  }
  tc.run_until_done([&] { return store.verify_queue_depth() == 0; });
  tc.settle();

  // Crash mid-round, at a parameterized instant.
  store.force_log_cleaning();
  tc.sim.run_until(tc.sim.now() + 5'000 +
                   static_cast<SimTime>(GetParam()) * 29'401);
  ASSERT_TRUE(store.cleaning_active() ||
              store.server_stats().cleanings > 0);
  store.crash();

  const EFactoryStore::RecoveryReport report = store.recover();
  EXPECT_EQ(report.keys_recovered, 24u);
  EXPECT_FALSE(store.cleaning_active());
  EXPECT_FALSE(store.clients_use_rpc());

  // The restarted server serves reads AND can clean again.
  auto client = tc.cluster.make_client(testutil::hinted(32, 512));
  for (int k = 0; k < 24; ++k) {
    const Expected<Bytes> got = tc.get_sync(*client, wl.key_at(k));
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(*got, wl.value_for(k, 1));
  }
  const std::uint64_t rounds_before = store.server_stats().cleanings;
  store.force_log_cleaning();
  tc.run_until_done([&] { return !store.cleaning_active(); });
  EXPECT_EQ(store.server_stats().cleanings, rounds_before + 1);
  for (int k = 0; k < 24; ++k) {
    EXPECT_TRUE(tc.get_sync(*client, wl.key_at(k)).has_value());
  }
}

TEST(RestartEmpty, RecoverOnEmptyStoreIsCleanNoop) {
  TestCluster tc{SystemKind::kEFactory,
                 testutil::small_config(), testutil::hinted(32, 64)};
  auto& store = *dynamic_cast<EFactoryStore*>(tc.cluster.store.get());
  store.crash();
  const EFactoryStore::RecoveryReport report = store.recover();
  EXPECT_EQ(report.entries_scanned, 0u);
  EXPECT_EQ(report.keys_recovered, 0u);
  // Still serves.
  const Bytes key = to_bytes("post-empty-restart-key-0000000000");
  EXPECT_TRUE(tc.put_sync(key, testutil::make_value(64, 1)).is_ok());
  tc.settle();
  EXPECT_TRUE(tc.get_sync(key).has_value());
}

// ------------------------------------------------------------ stats smoke

TEST(StatsReport, RendersEveryCounterLabel) {
  TestCluster tc{SystemKind::kEFactory,
                 testutil::small_config(), testutil::hinted(32, 64)};
  const Bytes key = to_bytes("stats-key-00000000000000000000000");
  ASSERT_TRUE(tc.put_sync(key, testutil::make_value(64, 1)).is_ok());
  tc.settle();
  ASSERT_TRUE(tc.get_sync(key).has_value());

  std::ostringstream os;
  print_cluster_report(os, *tc.cluster.store, tc.client->metrics());
  const std::string out = os.str();
  for (const char* label :
       {"requests handled", "allocations", "persist operations",
        "bg-verified objects", "PUTs", "GETs", "pure one-sided",
        "flush calls", "inbound DMA writes", "pure-read rate"}) {
    EXPECT_NE(out.find(label), std::string::npos) << label;
  }
}

TEST(StatsReport, CountersReflectActivity) {
  TestCluster tc{SystemKind::kEFactory,
                 testutil::small_config(), testutil::hinted(32, 64)};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(tc.put_sync(to_bytes("counter-key-00000000000000000000"),
                            testutil::make_value(64, 1))
                    .is_ok());
  }
  tc.settle();
  const StoreBase::Counters& s = tc.cluster.store->server_stats();
  EXPECT_EQ(s.requests, 5u);
  EXPECT_EQ(s.allocs, 5u);
  EXPECT_GE(s.persists, 5u);
  EXPECT_GE(tc.cluster.store->arena().stats().dma_writes, 5u);
}

}  // namespace
}  // namespace efac::stores
