// Tests for the options-struct client API and the SystemKind name round
// trip, plus two cross-cutting invariants the redesign pinned down:
//
//   * StoreConfig::arena_bytes() is derived from the real index layouts,
//     so every SystemKind must construct and serve traffic at the minimum
//     bucket count without tripping the StoreBase layout check.
//   * Every client's read-path counters partition its GETs:
//     gets == gets_pure_rdma + gets_rpc_path whenever no GET failed.
#include <gtest/gtest.h>

#include <string>

#include "store_test_util.hpp"
#include "stores/efactory.hpp"
#include "stores/kv_client.hpp"
#include "workload/runner.hpp"

namespace efac::stores {
namespace {

// ------------------------------------------------------- name round trip

TEST(SystemKindNames, RoundTripsEveryDisplayName) {
  for (const SystemKind kind : all_systems()) {
    const Expected<SystemKind> parsed = from_string(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind) << to_string(kind);
  }
}

TEST(SystemKindNames, AcceptsForgivingAliases) {
  const struct {
    const char* alias;
    SystemKind kind;
  } kCases[] = {
      {"efactory", SystemKind::kEFactory},
      {"EFACTORY", SystemKind::kEFactory},
      {"eFactory w/o hr", SystemKind::kEFactoryNoHr},
      {"efactory_no_hr", SystemKind::kEFactoryNoHr},
      {"saw", SystemKind::kSaw},
      {"imm", SystemKind::kImm},
      {"erda", SystemKind::kErda},
      {"forca", SystemKind::kForca},
      {"rpc", SystemKind::kRpc},
      {"ca", SystemKind::kCaNoPersist},
      {"CA w/o persistence", SystemKind::kCaNoPersist},
      {"rcommit", SystemKind::kRcommit},
      {"Rcommit (future hw)", SystemKind::kRcommit},
      {"inplace", SystemKind::kInPlace},
      {"octopus", SystemKind::kInPlace},
      {"in-place", SystemKind::kInPlace},
  };
  for (const auto& c : kCases) {
    const Expected<SystemKind> parsed = from_string(c.alias);
    ASSERT_TRUE(parsed.has_value()) << c.alias;
    EXPECT_EQ(*parsed, c.kind) << c.alias;
  }
}

TEST(SystemKindNames, RejectsUnknownNames) {
  for (const char* bad : {"", "efactoryy", "octopi", "e/Factory/hr"}) {
    const Expected<SystemKind> parsed = from_string(bad);
    ASSERT_FALSE(parsed.has_value()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

// --------------------------------------------------------- ClientOptions

TEST(ClientOptionsApi, DefaultReadModeIsHybridForEFactory) {
  testutil::TestCluster tc{SystemKind::kEFactory,
                           testutil::small_config(), testutil::hinted(1, 64)};
  ASSERT_TRUE(tc.put_sync(Bytes{'k'}, testutil::make_value(64, 1)).is_ok());
  tc.settle();  // let the verifier set the durability flag
  ASSERT_TRUE(tc.get_sync(Bytes{'k'}).has_value());
  EXPECT_EQ(tc.client->stats().gets_pure_rdma, 1u);
  EXPECT_EQ(tc.client->stats().gets_rpc_path, 0u);
}

TEST(ClientOptionsApi, RpcOnlyForcesTheFallbackPath) {
  testutil::TestCluster tc{SystemKind::kEFactory};
  ClientOptions options;
  options.read_mode = ReadMode::kRpcOnly;
  options.size_hint = {1, 64};
  auto client = tc.cluster.make_client(options);
  ASSERT_TRUE(
      tc.put_sync(*client, Bytes{'k'}, testutil::make_value(64, 1)).is_ok());
  tc.settle();
  ASSERT_TRUE(tc.get_sync(*client, Bytes{'k'}).has_value());
  EXPECT_EQ(client->stats().gets_pure_rdma, 0u);
  EXPECT_EQ(client->stats().gets_rpc_path, 1u);
}

TEST(ClientOptionsApi, NoHrClusterResolvesDefaultToRpcOnly) {
  testutil::TestCluster tc{SystemKind::kEFactoryNoHr,
                           testutil::small_config(), testutil::hinted(1, 64)};
  EXPECT_EQ(tc.client->options().read_mode, ReadMode::kRpcOnly);
  ASSERT_TRUE(tc.put_sync(Bytes{'k'}, testutil::make_value(64, 1)).is_ok());
  tc.settle();
  ASSERT_TRUE(tc.get_sync(Bytes{'k'}).has_value());
  EXPECT_EQ(tc.client->stats().gets_pure_rdma, 0u);
  EXPECT_EQ(tc.client->stats().gets_rpc_path, 1u);
}

TEST(ClientOptionsApi, NoHrClusterHonoursAnExplicitHybridRequest) {
  testutil::TestCluster tc{SystemKind::kEFactoryNoHr};
  ClientOptions options;
  options.read_mode = ReadMode::kHybrid;
  options.size_hint = {1, 64};
  auto client = tc.cluster.make_client(options);
  EXPECT_EQ(client->options().read_mode, ReadMode::kHybrid);
  ASSERT_TRUE(
      tc.put_sync(*client, Bytes{'k'}, testutil::make_value(64, 1)).is_ok());
  tc.settle();
  ASSERT_TRUE(tc.get_sync(*client, Bytes{'k'}).has_value());
  EXPECT_EQ(client->stats().gets_pure_rdma, 1u);
}

TEST(ClientOptionsApi, SpansRecordWithDefaultOptions) {
  testutil::TestCluster tc{SystemKind::kErda,
                           testutil::small_config(), testutil::hinted(1, 64)};
  ASSERT_TRUE(tc.put_sync(Bytes{'k'}, testutil::make_value(64, 1)).is_ok());
  ASSERT_TRUE(tc.get_sync(Bytes{'k'}).has_value());
  EXPECT_NE(tc.client->metrics().find_histogram("span.put.total"), nullptr);
  EXPECT_NE(tc.client->metrics().find_histogram("span.get.total"), nullptr);
}

// -------------------------------------------------------- arena sizing

TEST(ArenaSizing, IndexBytesCoversBothLayouts) {
  StoreConfig config;
  config.hash_buckets = 64;
  EXPECT_GE(config.index_bytes(),
            kv::HashDir::bytes_required(config.hash_buckets));
  EXPECT_GE(config.index_bytes(),
            kv::ErdaTable::bytes_required(config.hash_buckets));
  EXPECT_GE(config.arena_bytes(), config.index_bytes() + config.pool_bytes);
}

TEST(ArenaSizing, EverySystemFitsAtMinimumBuckets) {
  for (const SystemKind kind : all_systems()) {
    StoreConfig config;
    config.hash_buckets = 64;  // the smallest supported table
    config.pool_bytes = 256 * sizeconst::kKiB;
    testutil::TestCluster tc{kind, config, testutil::hinted(4, 64)};
    const Bytes key{'t', 'i', 'n', 'y'};
    ASSERT_TRUE(tc.put_sync(key, testutil::make_value(64, 3)).is_ok())
        << to_string(kind);
    tc.settle();
    const Expected<Bytes> got = tc.get_sync(key);
    ASSERT_TRUE(got.has_value()) << to_string(kind);
    EXPECT_EQ(*got, testutil::make_value(64, 3)) << to_string(kind);
  }
}

// -------------------------------------------------- read-path invariant

TEST(CounterInvariant, GetsPartitionIntoPureRdmaAndRpcPerSystem) {
  for (const SystemKind kind : all_systems()) {
    workload::RunOptions options;
    options.workload.mix = workload::Mix::kWriteIntensive;  // mixed 50/50
    options.workload.key_count = 64;
    options.workload.key_len = 16;
    options.workload.value_len = 128;
    // One closed-loop client: every GET lands after the PUT that produced
    // its value, so no system has a legitimate reason to fail a read and
    // the partition must be exact.
    options.clients = 1;
    options.ops_per_client = 300;

    sim::Simulator sim;
    Cluster cluster =
        make_cluster(sim, kind, workload::sized_store_config(options));
    const workload::RunResult result =
        workload::run_workload(sim, cluster, options);

    EXPECT_EQ(result.put_failures, 0u) << to_string(kind);
    EXPECT_EQ(result.get_failures, 0u) << to_string(kind);
    // The merged registry sums the measured clients' counters.
    const auto counter = [&result](std::string_view name) {
      return testutil::counter(result.metrics, name);
    };
    EXPECT_EQ(counter("client.gets"), counter("client.gets_pure_rdma") +
                                          counter("client.gets_rpc_path"))
        << to_string(kind);
    EXPECT_EQ(counter("client.puts") + counter("client.gets"), result.ops)
        << to_string(kind);
  }
}

TEST(CounterInvariant, RunResultCarriesSpanHistograms) {
  workload::RunOptions options;
  options.workload.mix = workload::Mix::kReadIntensive;
  options.workload.key_count = 32;
  options.workload.key_len = 16;
  options.workload.value_len = 128;
  options.clients = 2;
  options.ops_per_client = 100;

  sim::Simulator sim;
  Cluster cluster = make_cluster(sim, SystemKind::kEFactory,
                                 workload::sized_store_config(options));
  const workload::RunResult result =
      workload::run_workload(sim, cluster, options);
  const Histogram* get_total =
      result.metrics.find_histogram("span.get.total");
  ASSERT_NE(get_total, nullptr);
  EXPECT_EQ(get_total->count(),
            testutil::counter(result.metrics, "client.gets"));
  const Histogram* put_total =
      result.metrics.find_histogram("span.put.total");
  ASSERT_NE(put_total, nullptr);
  EXPECT_EQ(put_total->count(),
            testutil::counter(result.metrics, "client.puts"));
}

}  // namespace
}  // namespace efac::stores
