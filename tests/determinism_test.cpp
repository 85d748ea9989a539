// Bit-reproducibility guarantees of the event scheduler.
//
// The two-level queue (bucket wheel + far-timer heap) must preserve global
// (time, seq) FIFO order no matter which structure an event landed in.
// These tests pin that down three ways: scheduler-level ordering across
// the wheel/heap boundary, a dispatch-order hash over repeated seeded
// fig9-style workload runs, and byte-identical exported metrics JSON.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "metrics/json.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "stores/factory.hpp"
#include "stores/sharding.hpp"
#include "workload/runner.hpp"

namespace efac {
namespace {

// ------------------------------------------------------ scheduler ordering

TEST(SchedulerOrder, SameInstantFifoAcrossWheelAndHeap) {
  // Schedule an event beyond the wheel horizon (-> heap), then advance the
  // clock and schedule more events for the same instant (-> wheel). The
  // heap event was scheduled first, so it must fire first.
  sim::Simulator sim;
  const SimTime target = sim::Simulator::kWheelSpan + 1000;
  std::vector<int> order;
  sim.call_at(target, [&order] { order.push_back(0); });  // heap resident
  sim.call_at(500, [&sim, &order, target] {
    // now == 500: target is inside the horizon, so these go to the wheel.
    sim.call_at(target, [&order] { order.push_back(1); });
    sim.call_at(target, [&order] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.now(), target);
  EXPECT_GE(sim.heap_fallback_dispatches(), 1u);
}

TEST(SchedulerOrder, FarTimersInterleaveInTimeOrder) {
  sim::Simulator sim;
  std::vector<SimTime> fired;
  const auto record = [&sim, &fired] { fired.push_back(sim.now()); };
  // Mix of deadlines straddling the horizon, scheduled out of order.
  const SimTime span = sim::Simulator::kWheelSpan;
  for (const SimTime t : {3 * span, SimTime{10}, 2 * span + 5, SimTime{900},
                          span - 1, span, span + 1, SimTime{0}}) {
    sim.call_at(t, record);
  }
  sim.run();
  ASSERT_EQ(fired.size(), 8u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1], fired[i]) << "at " << i;
  }
  EXPECT_GT(sim.heap_fallback_dispatches(), 0u);
  EXPECT_GT(sim.fast_path_dispatches(), 0u);
}

TEST(SchedulerOrder, LargeCallbackCapturesAreBoxedAndStillRun) {
  // A capture bigger than the event's inline buffer must be boxed on the
  // heap and still fire exactly once, in order.
  sim::Simulator sim;
  struct Big {
    std::uint64_t payload[12];  // 96 bytes: over the 56-byte inline limit
  };
  Big big{};
  big.payload[11] = 42;
  std::vector<std::uint64_t> seen;
  sim.call_at(10, [&seen] { seen.push_back(1); });
  sim.call_at(10, [big, &seen] { seen.push_back(big.payload[11]); });
  sim.call_at(10, [&seen] { seen.push_back(3); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 42, 3}));
}

TEST(SchedulerOrder, PendingEventsTracksBothStructures) {
  sim::Simulator sim;
  sim.call_at(5, [] {});
  sim.call_at(sim::Simulator::kWheelSpan * 2, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run_until(10);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(SchedulerOrder, IdenticalScheduleGivesIdenticalHash) {
  const auto run_once = [] {
    sim::Simulator sim;
    std::uint64_t sink = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.call_at(static_cast<SimTime>((i * 37) % 500), [&sink] { ++sink; });
      if (i % 10 == 0) {
        sim.call_at(sim::Simulator::kWheelSpan + i, [&sink] { ++sink; });
      }
    }
    sim.run();
    return sim.dispatch_hash();
  };
  EXPECT_EQ(run_once(), run_once());
}

// ------------------------------------------------- end-to-end determinism

workload::RunOptions fig9_style_options() {
  workload::RunOptions options;
  options.workload.mix = workload::Mix::kUpdateOnly;
  options.workload.key_count = 64;
  options.workload.key_len = 16;
  options.workload.value_len = 256;
  options.workload.seed = 0xD37;
  options.clients = 4;
  options.ops_per_client = 50;
  return options;
}

struct RunFingerprint {
  std::uint64_t events = 0;
  std::uint64_t dispatch_hash = 0;
  std::string metrics_json;
};

RunFingerprint run_fig9_style() {
  const workload::RunOptions options = fig9_style_options();
  auto sim = std::make_unique<sim::Simulator>();
  stores::Cluster cluster =
      stores::make_cluster(*sim, stores::SystemKind::kEFactory,
                           workload::sized_store_config(options));
  workload::RunResult result = workload::run_workload(*sim, cluster, options);
  RunFingerprint fp;
  fp.events = sim->events_processed();
  fp.dispatch_hash = sim->dispatch_hash();
  fp.metrics_json = metrics::to_json(result.metrics, "determinism");
  return fp;
}

TEST(Determinism, RepeatedSeededRunsAreBitIdentical) {
  const RunFingerprint a = run_fig9_style();
  const RunFingerprint b = run_fig9_style();
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.dispatch_hash, b.dispatch_hash);
  // Byte-for-byte: the exported document embeds only per-run deltas, so a
  // repeat in the same process must serialize identically.
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

TEST(Determinism, WorkloadPublishesEngineCounters) {
  const workload::RunOptions options = fig9_style_options();
  auto sim = std::make_unique<sim::Simulator>();
  stores::Cluster cluster =
      stores::make_cluster(*sim, stores::SystemKind::kEFactory,
                           workload::sized_store_config(options));
  workload::RunResult result = workload::run_workload(*sim, cluster, options);

  const metrics::Counter* fast =
      result.metrics.find_counter("sim.events.fast_path");
  const metrics::Counter* heap =
      result.metrics.find_counter("sim.events.heap_fallback");
  ASSERT_NE(fast, nullptr);
  ASSERT_NE(heap, nullptr);
  EXPECT_EQ(fast->value() + heap->value(), sim->events_processed());
  EXPECT_GT(fast->value(), 0u);

  // eFactory's verifier checksums every object, so some CRC bytes must be
  // attributed to exactly one of the two kernels.
  const metrics::Counter* hw = result.metrics.find_counter("crc.hw_bytes");
  const metrics::Counter* sw = result.metrics.find_counter("crc.sw_bytes");
  ASSERT_NE(hw, nullptr);
  ASSERT_NE(sw, nullptr);
  EXPECT_GT(hw->value() + sw->value(), 0u);
}

// The async window and the batch-reserve path introduce concurrent
// completions; their interleaving must still be a pure function of the
// inputs. Two identical batched runs share every dispatch decision.
TEST(Determinism, BatchedAsyncRunsAreBitIdentical) {
  const auto run_once = [] {
    auto sim = std::make_unique<sim::Simulator>();
    stores::StoreConfig config;
    config.pool_bytes = 4 * sizeconst::kMiB;
    stores::Cluster cluster =
        stores::make_cluster(*sim, stores::SystemKind::kEFactory, config);
    cluster.start();
    stores::ClientOptions options;
    options.size_hint = {32, 256};
    options.max_inflight = 8;
    auto client = cluster.make_client(options);
    workload::Workload wl{workload::WorkloadConfig{
        .key_count = 24, .key_len = 32, .value_len = 256}};

    bool done = false;
    sim->spawn([](stores::KvClient& c, const workload::Workload& w,
                  bool* flag) -> sim::Task<void> {
      std::vector<stores::KvClient::PutOp> ops;
      for (int k = 0; k < 24; ++k) {
        ops.push_back({w.key_at(k), w.value_for(k, 1)});
      }
      const std::vector<Status> statuses =
          co_await c.put_batch(std::move(ops));
      for (const Status& s : statuses) EXPECT_TRUE(s.is_ok());
      std::vector<Bytes> keys;
      for (int k = 0; k < 24; ++k) keys.push_back(w.key_at(k));
      const std::vector<Expected<Bytes>> got =
          co_await c.get_batch(std::move(keys));
      for (const Expected<Bytes>& v : got) EXPECT_TRUE(v.has_value());
      *flag = true;
    }(*client, wl, &done));
    while (!done) sim->run_until(sim->now() + timeconst::kMillisecond);
    sim->run_until(sim->now() + 2 * timeconst::kMillisecond);
    return std::pair<std::uint64_t, std::uint64_t>{sim->events_processed(),
                                                   sim->dispatch_hash()};
  };
  EXPECT_EQ(run_once(), run_once());
}

// The adaptive hybrid read adds a per-client durable-offset record and a
// hedged locate RPC; both are pure functions of the schedule, so enabling
// the feature must not cost reproducibility: two identical adaptive runs
// share every dispatch decision and export byte-identical metrics
// (including the read.adaptive.* counters).
TEST(Determinism, AdaptiveReadRunsAreBitIdentical) {
  const auto run_once = [] {
    workload::RunOptions options = fig9_style_options();
    options.workload.mix = workload::Mix::kWriteIntensive;
    options.client.adaptive.enabled = true;
    auto sim = std::make_unique<sim::Simulator>();
    stores::Cluster cluster =
        stores::make_cluster(*sim, stores::SystemKind::kEFactory,
                             workload::sized_store_config(options));
    workload::RunResult result =
        workload::run_workload(*sim, cluster, options);
    RunFingerprint fp;
    fp.events = sim->events_processed();
    fp.dispatch_hash = sim->dispatch_hash();
    fp.metrics_json = metrics::to_json(result.metrics, "determinism");
    return fp;
  };
  const RunFingerprint a = run_once();
  const RunFingerprint b = run_once();
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.dispatch_hash, b.dispatch_hash);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

// --------------------------------------------------- sharded determinism

RunFingerprint run_fig9_style_sharded(std::size_t num_shards) {
  const workload::RunOptions options = fig9_style_options();
  auto sim = std::make_unique<sim::Simulator>();
  stores::ClusterConfig config;
  config.num_shards = num_shards;
  config.store = workload::sized_store_config(options);
  stores::ShardedCluster cluster = stores::make_sharded_cluster(
      *sim, stores::SystemKind::kEFactory, std::move(config));
  workload::RunResult result = workload::run_workload(*sim, cluster, options);
  RunFingerprint fp;
  fp.events = sim->events_processed();
  fp.dispatch_hash = sim->dispatch_hash();
  fp.metrics_json = metrics::to_json(result.metrics, "determinism");
  return fp;
}

// num_shards == 1 must be the IDENTICAL system, not merely an equivalent
// one: same event count, same dispatch-order hash, byte-identical metrics
// export. This is what lets the sharded sweep reuse the unsharded
// baselines as its 1-shard points.
TEST(Determinism, SingleShardShardedRunMatchesUnsharded) {
  const RunFingerprint unsharded = run_fig9_style();
  const RunFingerprint sharded = run_fig9_style_sharded(1);
  EXPECT_EQ(unsharded.events, sharded.events);
  EXPECT_EQ(unsharded.dispatch_hash, sharded.dispatch_hash);
  EXPECT_EQ(unsharded.metrics_json, sharded.metrics_json);
}

// Four shards interleave under one scheduler; the interleaving must still
// be a pure function of the inputs.
TEST(Determinism, MultiShardRunsAreBitIdentical) {
  const RunFingerprint a = run_fig9_style_sharded(4);
  const RunFingerprint b = run_fig9_style_sharded(4);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.dispatch_hash, b.dispatch_hash);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

// A fault-matrix-style plan (dropped sends/responses + delays) against a
// 4-shard cluster, with the client retry engine on: every shard forks the
// plan under a shard-mixed seed, so repeats replay the exact schedule.
TEST(Determinism, FaultPlanOnShardedClusterReplaysBitIdentically) {
  const auto run_once = [] {
    const Expected<fault::FaultPlan> plan = fault::FaultPlan::parse(
        "name = shard-chaos\nseed = 0xF1\n"
        "fault send_drop every=11 phase=2\n"
        "fault resp_drop every=13 phase=4\n"
        "fault resp_delay every=9 phase=5 delay_us=40\n");
    EFAC_CHECK(plan.has_value());
    auto sim = std::make_unique<sim::Simulator>();
    stores::ClusterConfig config;
    config.num_shards = 4;
    config.store.pool_bytes = 8 * sizeconst::kMiB;
    config.store.fault_plan = *plan;
    stores::ShardedCluster cluster = stores::make_sharded_cluster(
        *sim, stores::SystemKind::kEFactory, std::move(config));
    cluster.start();

    stores::ClientOptions options;
    options.size_hint = {16, 128};
    options.retry.max_attempts = 4;
    options.retry.rpc_timeout_ns = 60 * timeconst::kMicrosecond;
    options.retry.backoff_base_ns = 2 * timeconst::kMicrosecond;
    options.retry.backoff_cap_ns = 50 * timeconst::kMicrosecond;
    options.retry.jitter = 0.2;
    auto client = cluster.make_client(options);

    std::uint64_t oks = 0;
    bool done = false;
    sim->spawn([](stores::KvClient& c, std::uint64_t* ok_count,
                  bool* flag) -> sim::Task<void> {
      for (int version = 1; version <= 10; ++version) {
        for (int k = 0; k < 8; ++k) {
          Bytes key(16, static_cast<std::uint8_t>('a' + k));
          Bytes value(128, static_cast<std::uint8_t>(version));
          if ((co_await c.put(std::move(key), std::move(value))).is_ok()) {
            ++*ok_count;
          }
          Bytes again(16, static_cast<std::uint8_t>('a' + k));
          static_cast<void>(co_await c.get(std::move(again)));
        }
      }
      *flag = true;
    }(*client, &oks, &done));
    while (!done) sim->run_until(sim->now() + timeconst::kMillisecond);
    sim->run_until(sim->now() + 2 * timeconst::kMillisecond);

    struct Fingerprint {
      std::uint64_t events;
      std::uint64_t hash;
      std::uint64_t oks;
      std::uint64_t retries;
      bool operator==(const Fingerprint&) const = default;
    };
    return Fingerprint{sim->events_processed(), sim->dispatch_hash(), oks,
                       client->stats().retries};
  };
  const auto a = run_once();
  EXPECT_EQ(a, run_once());
  EXPECT_GT(a.oks, 0u);
}

}  // namespace
}  // namespace efac
