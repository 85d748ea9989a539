// Integration tests: full YCSB runs through the closed-loop harness on
// every system, protocol-level expectations over aggregate stats, and
// log-cleaning under live traffic.
#include <gtest/gtest.h>

#include "stores/efactory.hpp"
#include "store_test_util.hpp"
#include "workload/runner.hpp"

namespace efac::workload {
namespace {

using stores::Cluster;
using stores::SystemKind;
using testutil::counter;

RunOptions small_run(Mix mix, std::size_t value_len = 512) {
  RunOptions options;
  options.workload.mix = mix;
  options.workload.key_count = 200;
  options.workload.value_len = value_len;
  options.clients = 4;
  options.ops_per_client = 150;
  return options;
}

RunResult run_one(SystemKind kind, const RunOptions& options,
                  Cluster* out_cluster = nullptr) {
  static sim::Simulator* leak_guard = nullptr;  // one sim per call
  static_cast<void>(leak_guard);
  auto sim = std::make_unique<sim::Simulator>();
  Cluster cluster =
      stores::make_cluster(*sim, kind, sized_store_config(options));
  RunResult result = run_workload(*sim, cluster, options);
  if (out_cluster != nullptr) *out_cluster = std::move(cluster);
  // NOTE: cluster holds the arena; it must outlive pending sim events, so
  // destroy the simulator first.
  sim.reset();
  return result;
}

/// Share of the run's GETs that were pure one-sided reads.
double pure_fraction(const RunResult& result) {
  return static_cast<double>(counter(result.metrics, "client.gets_pure_rdma")) /
         static_cast<double>(counter(result.metrics, "client.gets"));
}

// ----------------------------------------------------- per-system smoke

class AllSystemsYcsb
    : public ::testing::TestWithParam<std::tuple<SystemKind, Mix>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllSystemsYcsb,
    ::testing::Combine(
        ::testing::Values(SystemKind::kEFactory, SystemKind::kEFactoryNoHr,
                          SystemKind::kSaw, SystemKind::kImm,
                          SystemKind::kErda, SystemKind::kForca),
        ::testing::Values(Mix::kReadOnly, Mix::kReadIntensive,
                          Mix::kWriteIntensive, Mix::kUpdateOnly)),
    [](const auto& pinfo) {
      std::string name{stores::to_string(std::get<0>(pinfo.param))};
      name += "_";
      switch (std::get<1>(pinfo.param)) {
        case Mix::kReadOnly: name += "C"; break;
        case Mix::kReadIntensive: name += "B"; break;
        case Mix::kWriteIntensive: name += "A"; break;
        case Mix::kUpdateOnly: name += "U"; break;
      }
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST_P(AllSystemsYcsb, CompletesWithoutReadFailures) {
  const auto [kind, mix] = GetParam();
  const RunResult result = run_one(kind, small_run(mix));
  EXPECT_EQ(result.ops, 4u * 150u);
  EXPECT_GT(result.mops, 0.0);
  EXPECT_EQ(result.get_failures, 0u)
      << stores::to_string(kind) << " on " << to_string(mix);
  if (put_fraction(mix) > 0) {
    EXPECT_GT(result.puts, 0u);
  }
  if (put_fraction(mix) < 1) {
    EXPECT_GT(result.gets, 0u);
  }
}

// -------------------------------------------------- protocol expectations

TEST(IntegrationEFactory, ReadOnlyIsOverwhelminglyPureRdma) {
  const RunResult result =
      run_one(SystemKind::kEFactory, small_run(Mix::kReadOnly));
  ASSERT_GT(counter(result.metrics, "client.gets"), 0u);
  EXPECT_GT(pure_fraction(result), 0.95);
}

TEST(IntegrationEFactory, WriteHeavyMixStillMostlyPureReads) {
  // Read-write races force some RPC fallbacks, but verified data
  // dominates (the paper's premise for the hybrid read paying off).
  const RunResult result =
      run_one(SystemKind::kEFactory, small_run(Mix::kWriteIntensive));
  ASSERT_GT(counter(result.metrics, "client.gets"), 0u);
  EXPECT_GT(pure_fraction(result), 0.5);
}

TEST(IntegrationEFactory, NoHrVariantNeverUsesPureReads) {
  const RunResult result =
      run_one(SystemKind::kEFactoryNoHr, small_run(Mix::kReadIntensive));
  EXPECT_EQ(counter(result.metrics, "client.gets_pure_rdma"), 0u);
  EXPECT_EQ(counter(result.metrics, "client.gets_rpc_path"),
            counter(result.metrics, "client.gets"));
}

TEST(IntegrationErda, EveryReadPaysClientCrc) {
  const RunResult result =
      run_one(SystemKind::kErda, small_run(Mix::kReadOnly));
  EXPECT_GE(counter(result.metrics, "client.client_crc_checks"),
            counter(result.metrics, "client.gets"));
}

TEST(IntegrationForca, EveryReadGoesThroughServer) {
  const RunResult result =
      run_one(SystemKind::kForca, small_run(Mix::kReadOnly));
  EXPECT_EQ(counter(result.metrics, "client.gets_rpc_path"),
            counter(result.metrics, "client.gets"));
  EXPECT_EQ(counter(result.metrics, "client.gets_pure_rdma"), 0u);
}

// ----------------------------------------------------------- log cleaning

TEST(IntegrationCleaning, WorkloadSurvivesContinuousCleaning) {
  // Undersized pool: cleaning triggers repeatedly under live traffic;
  // no read may fail and no acked update may be lost at the end.
  RunOptions options = small_run(Mix::kWriteIntensive, 1024);
  options.ops_per_client = 400;
  auto sim = std::make_unique<sim::Simulator>();
  stores::StoreConfig config =
      sized_store_config(options, /*for_cleaning=*/true);
  Cluster cluster = stores::make_cluster(*sim, SystemKind::kEFactory, config);
  auto* store = dynamic_cast<stores::EFactoryStore*>(cluster.store.get());
  const RunResult result = run_workload(*sim, cluster, options);

  EXPECT_EQ(result.get_failures, 0u);
  EXPECT_GE(store->server_stats().cleanings, 1u)
      << "pool sizing failed to trigger cleaning";

  // After the dust settles every key must still resolve.
  sim->run_until(sim->now() + 5 * timeconst::kMillisecond);
  Workload workload{options.workload};
  auto client = cluster.make_client(testutil::hinted(options.workload.key_len, options.workload.value_len));
  int failures = 0;
  bool done = false;
  sim->spawn([](stores::KvClient& c, Workload& w, std::uint64_t keys,
                int* fails, bool* flag) -> sim::Task<void> {
    for (std::uint64_t k = 0; k < keys; ++k) {
      const Expected<Bytes> got = co_await c.get(w.key_at(k));
      if (!got) ++*fails;
    }
    *flag = true;
  }(*client, workload, options.workload.key_count, &failures, &done));
  while (!done) sim->run_until(sim->now() + timeconst::kMillisecond);
  EXPECT_EQ(failures, 0);
  sim.reset();
}

TEST(IntegrationCleaning, CrashAfterCleaningStillRecovers) {
  RunOptions options = small_run(Mix::kUpdateOnly, 1024);
  options.ops_per_client = 300;
  auto sim = std::make_unique<sim::Simulator>();
  stores::StoreConfig config =
      sized_store_config(options, /*for_cleaning=*/true);
  Cluster cluster = stores::make_cluster(*sim, SystemKind::kEFactory, config);
  auto* store = dynamic_cast<stores::EFactoryStore*>(cluster.store.get());
  static_cast<void>(run_workload(*sim, cluster, options));
  ASSERT_GE(store->server_stats().cleanings, 1u);

  // Settle, then crash: every key must recover to a CRC-intact value.
  for (int i = 0; i < 1000 && store->verify_queue_depth() > 0; ++i) {
    sim->run_until(sim->now() + 100 * timeconst::kMicrosecond);
  }
  sim->run_until(sim->now() + 5 * timeconst::kMillisecond);
  store->crash();
  Workload workload{options.workload};
  int missing = 0;
  for (std::uint64_t k = 0; k < options.workload.key_count; ++k) {
    if (!store->recover_get(workload.key_at(k))) ++missing;
  }
  EXPECT_EQ(missing, 0);
  sim.reset();
}

// ------------------------------------------------------------ determinism

TEST(IntegrationDeterminism, SameSeedSameThroughput) {
  const RunResult a = run_one(SystemKind::kEFactory,
                              small_run(Mix::kWriteIntensive));
  const RunResult b = run_one(SystemKind::kEFactory,
                              small_run(Mix::kWriteIntensive));
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.span_ns, b.span_ns);
  EXPECT_EQ(a.mops, b.mops);
}

}  // namespace
}  // namespace efac::workload
