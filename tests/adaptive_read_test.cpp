// Adaptive hybrid read (stores/adaptive.hpp + the eFactory client wiring).
//
// Pins the durable-offset record (learned from one-sided successes and
// from locate replies, key-scoped under bucket collisions), the
// speculative pair READs and hedges a write-heavy Zipfian run produces,
// and deterministic replay with the feature on — including under a fault
// plan with the retry engine armed.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "metrics/json.hpp"
#include "metrics/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "stores/adaptive.hpp"
#include "stores/efactory.hpp"
#include "stores/factory.hpp"
#include "trace/event_log.hpp"
#include "workload/runner.hpp"

namespace efac::stores {
namespace {

// ------------------------------------------------------ durable-offset record

TEST(AdaptiveOffsetRecord, CollidingKeyNeverReadsItsNeighboursOffset) {
  metrics::MetricsRegistry registry;
  AdaptiveReadState state{registry};
  const std::uint64_t key_a = 0xFEED;
  constexpr MemOffset kOffA = 4096;
  constexpr MemOffset kOffB = 8192;
  EXPECT_EQ(state.predicted_off(key_a), 0u);  // cold bucket
  state.note_durable(key_a, kOffA);
  EXPECT_EQ(state.predicted_off(key_a), kOffA);

  // Find a key that shares key_a's bucket: recording it takes the bucket
  // over, which is the only way key_a's record can disappear.
  std::uint64_t key_b = key_a + 1;
  for (;; ++key_b) {
    state.note_durable(key_b, kOffB);
    if (state.predicted_off(key_a) != kOffA) break;
  }
  // Latest observation wins the bucket, and the evicted key predicts
  // nothing rather than its neighbour's offset.
  EXPECT_EQ(state.predicted_off(key_b), kOffB);
  EXPECT_EQ(state.predicted_off(key_a), 0u);
  state.note_durable(key_a, kOffA);
  EXPECT_EQ(state.predicted_off(key_b), 0u);
  EXPECT_EQ(state.predicted_off(key_a), kOffA);
}

// Runs one GET of `key` to completion and checks it returned `value`.
void get_and_check(sim::Simulator& sim, KvClient& client, const Bytes& key,
                   const Bytes& value) {
  bool done = false;
  sim.spawn([](KvClient& c, Bytes k, Bytes v, bool* flag) -> sim::Task<void> {
    const Expected<Bytes> got = co_await c.get(k);
    EXPECT_TRUE(got.has_value());
    if (got.has_value()) {
      EXPECT_EQ(*got, v);
    }
    *flag = true;
  }(client, key, value, &done));
  while (!done) sim.run_until(sim.now() + timeconst::kMicrosecond);
}

std::uint64_t counter(const KvClient& client, const char* name) {
  const metrics::Counter* c = client.metrics().find_counter(name);
  EXPECT_NE(c, nullptr) << name;
  return c != nullptr ? c->value() : 0;
}

/// 4 KB values make the server's on-demand verify (a CRC over the value)
/// outlast the client's object READ, so a hedge cannot flag an object
/// before the attempt sees it.
constexpr std::size_t kValueLen = 4096;

/// One adaptive client on a real store.
struct AdaptiveStore {
  explicit AdaptiveStore(StoreConfig config = {}) {
    config.pool_bytes = 4 * sizeconst::kMiB;
    store = std::make_unique<EFactoryStore>(*sim, config);
    store->start();
    ClientOptions options;
    options.size_hint = {16, kValueLen};
    options.adaptive.enabled = true;
    client = store->make_client(options);
  }
  void put(const Bytes& key, const Bytes& value) {
    bool done = false;
    sim->spawn([](KvClient& c, Bytes k, Bytes v, bool* flag)
                   -> sim::Task<void> {
      EXPECT_TRUE((co_await c.put(k, v)).is_ok());
      *flag = true;
    }(*client, key, value, &done));
    while (!done) sim->run_until(sim->now() + timeconst::kMicrosecond);
  }

  std::unique_ptr<sim::Simulator> sim = std::make_unique<sim::Simulator>();
  std::unique_ptr<EFactoryStore> store;
  std::unique_ptr<KvClient> client;
};

TEST(AdaptiveOffsetRecord, LearnedFromAOneSidedSuccess) {
  AdaptiveStore t;
  const Bytes key(16, 'k');
  const Bytes value(kValueLen, 'v');
  t.put(key, value);
  t.sim->run_until(t.sim->now() + timeconst::kMillisecond);  // verified

  // Nothing recorded yet: a plain serial one-sided read, whose hedge is
  // abandoned once the flag proves set.
  get_and_check(*t.sim, *t.client, key, value);
  EXPECT_EQ(t.client->stats().gets_pure_rdma, 1u);
  EXPECT_EQ(counter(*t.client, "read.adaptive.spec_pairs"), 0u);
  EXPECT_EQ(counter(*t.client, "read.adaptive.hedges_wasted"), 1u);

  // That success recorded the offset: the next GET is one pair READ.
  get_and_check(*t.sim, *t.client, key, value);
  EXPECT_EQ(t.client->stats().gets_pure_rdma, 2u);
  EXPECT_EQ(counter(*t.client, "read.adaptive.spec_pairs"), 1u);
  EXPECT_EQ(counter(*t.client, "read.adaptive.spec_hits"), 1u);
}

TEST(AdaptiveOffsetRecord, LearnedFromALocateReply) {
  // A verifier that idles for 10 ms after finding its queue empty leaves
  // the new object unflagged, so the first GET must fall back to RPC.
  StoreConfig config;
  config.bg_idle_ns = 10 * timeconst::kMillisecond;
  AdaptiveStore t{config};
  const Bytes key(16, 'k');
  const Bytes value(kValueLen, 'v');
  t.put(key, value);

  get_and_check(*t.sim, *t.client, key, value);
  EXPECT_EQ(t.client->stats().gets_rpc_path, 1u);
  EXPECT_EQ(counter(*t.client, "read.adaptive.spec_pairs"), 0u);
  EXPECT_EQ(counter(*t.client, "read.adaptive.hedges_wasted"), 0u);

  // The locate reply's offset (verified on demand by the server) is the
  // next GET's prediction, and it holds.
  get_and_check(*t.sim, *t.client, key, value);
  EXPECT_EQ(t.client->stats().gets_pure_rdma, 1u);
  EXPECT_EQ(counter(*t.client, "read.adaptive.spec_pairs"), 1u);
  EXPECT_EQ(counter(*t.client, "read.adaptive.spec_hits"), 1u);
}

// ------------------------------------------------------------ probe budget

std::uint64_t span_count(const KvClient& client, const char* name) {
  const Histogram* h = client.metrics().find_histogram(name);
  return h != nullptr ? h->count() : 0;
}

// The pair READ is probe 0 of the client's 16. A predicted key that lies
// past the 16 entries from its ideal slot costs one pair READ and 15
// entry READs, then the GET falls back to the locate RPC as an entry miss.
TEST(AdaptivePairRead, CountsAgainstTheSixteenProbes) {
  StoreConfig config;
  config.hash_buckets = 64;
  config.trace.enabled = true;
  AdaptiveStore t{config};
  ClusterWiring wiring;
  wiring.trace_log = t.store->trace_log();
  t.client->attach(wiring);

  // Sixteen keys that share the target's ideal slot fill it and the 15
  // slots after it, so the target lands 16 slots past its ideal slot.
  const Bytes key(16, 'k');
  const std::uint64_t home = kv::hash_key(key) & (config.hash_buckets - 1);
  std::vector<Bytes> blockers;
  for (int i = 0; blockers.size() < 16; ++i) {
    Bytes other(16, 'b');
    const std::string tag = std::to_string(i);
    std::copy(tag.begin(), tag.end(), other.begin());
    if ((kv::hash_key(other) & (config.hash_buckets - 1)) == home) {
      blockers.push_back(other);
    }
  }
  const Bytes value(kValueLen, 'v');
  for (const Bytes& other : blockers) t.put(other, value);
  t.put(key, value);
  t.sim->run_until(t.sim->now() + timeconst::kMillisecond);  // verified

  // No prediction yet: 16 entry READs, then the locate reply records the
  // key's offset.
  get_and_check(*t.sim, *t.client, key, value);
  EXPECT_EQ(span_count(*t.client, "span.get.entry_read"), 16u);
  EXPECT_EQ(counter(*t.client, "read.adaptive.spec_pairs"), 0u);

  // Held prediction: the pair READ at the ideal slot finds a blocker, and
  // the probe goes on from probe 1.
  get_and_check(*t.sim, *t.client, key, value);
  EXPECT_EQ(counter(*t.client, "read.adaptive.spec_pairs"), 1u);
  EXPECT_EQ(counter(*t.client, "read.adaptive.spec_hits"), 0u);
  EXPECT_EQ(span_count(*t.client, "span.get.spec_read"), 1u);
  EXPECT_EQ(span_count(*t.client, "span.get.entry_read"), 16u + 15u);
  EXPECT_EQ(t.client->stats().gets_rpc_path.value(), 2u);

  std::vector<trace::GetPath> paths;
  for (const trace::Event& e : t.store->trace_log()->snapshot().events) {
    if (e.type == static_cast<std::uint8_t>(trace::EventType::kGetPath)) {
      paths.push_back(static_cast<trace::GetPath>(e.aux));
    }
  }
  EXPECT_EQ(paths, (std::vector<trace::GetPath>{trace::GetPath::kEntryMiss,
                                                trace::GetPath::kEntryMiss}));
}

// -------------------------------------------------------------- end to end

workload::RunOptions write_heavy_options() {
  workload::RunOptions options;
  options.workload.mix = workload::Mix::kWriteIntensive;
  options.workload.key_count = 64;
  options.workload.key_len = 16;
  options.workload.value_len = 1024;
  options.workload.seed = 0xADA;
  options.clients = 8;
  options.ops_per_client = 100;
  return options;
}

workload::RunResult run_write_heavy(const workload::RunOptions& options) {
  auto sim = std::make_unique<sim::Simulator>();
  Cluster cluster = make_cluster(*sim, SystemKind::kEFactory,
                                 workload::sized_store_config(options));
  return workload::run_workload(*sim, cluster, options);
}

TEST(AdaptiveRead, WriteHeavyZipfExercisesSpecPairsAndHedges) {
  workload::RunOptions options = write_heavy_options();
  options.client.adaptive.enabled = true;
  const workload::RunResult result = run_write_heavy(options);

  const auto value = [&](const char* name) {
    const metrics::Counter* c = result.metrics.find_counter(name);
    EXPECT_NE(c, nullptr) << name;
    return c != nullptr ? c->value() : 0;
  };
  // Hot keys re-read between overwrites: some predictions hold, some
  // keys moved since this client last saw them durable.
  EXPECT_GT(value("read.adaptive.spec_pairs"), 0u);
  EXPECT_GT(value("read.adaptive.spec_hits"), 0u);
  EXPECT_LT(value("read.adaptive.spec_hits"),
            value("read.adaptive.spec_pairs"));
  // Every optimistic attempt is hedged; attempts that landed waste theirs.
  EXPECT_GT(value("read.adaptive.hedges_wasted"), 0u);
  EXPECT_LT(value("read.adaptive.hedges_wasted"),
            value("read.adaptive.hedges"));
  // Nothing increments these two; they stay registered at zero for the
  // repository benchmark's rpc_first_ratio and stale_skip_ratio.
  EXPECT_EQ(value("read.adaptive.rpc_first"), 0u);
  EXPECT_EQ(value("read.adaptive.stale_skips"), 0u);
  EXPECT_GT(result.gets, 0u);
  EXPECT_EQ(result.get_failures, 0u);
}

TEST(AdaptiveRead, DisabledRunExportsNoAdaptiveMetrics) {
  const workload::RunResult result = run_write_heavy(write_heavy_options());
  EXPECT_EQ(result.metrics.find_counter("read.adaptive.spec_pairs"), nullptr);
  const std::string json = metrics::to_json(result.metrics, "adaptive-off");
  EXPECT_EQ(json.find("read.adaptive"), std::string::npos);
}

// The adaptive read is pure client CPU plus one hedged RPC per attempt:
// repeated seeded runs with the feature on must replay bit-identically,
// including under a fault plan with the retry engine armed (dropped and
// delayed hedges resolve exactly the same way every time).
TEST(AdaptiveRead, FaultPlanRunsReplayBitIdentically) {
  const auto run_once = [] {
    const Expected<fault::FaultPlan> plan = fault::FaultPlan::parse(
        "name = adaptive-chaos\nseed = 0xF2\n"
        "fault send_drop every=11 phase=2\n"
        "fault resp_delay every=9 phase=5 delay_us=40\n");
    EFAC_CHECK(plan.has_value());
    workload::RunOptions options = write_heavy_options();
    options.client.adaptive.enabled = true;
    options.client.retry.max_attempts = 4;
    options.client.retry.rpc_timeout_ns = 60 * timeconst::kMicrosecond;
    options.clients = 4;
    options.ops_per_client = 50;

    auto sim = std::make_unique<sim::Simulator>();
    StoreConfig config = workload::sized_store_config(options);
    config.fault_plan = *plan;
    Cluster cluster = make_cluster(*sim, SystemKind::kEFactory, config);
    workload::RunResult result =
        workload::run_workload(*sim, cluster, options);

    struct Fingerprint {
      std::uint64_t events;
      std::uint64_t hash;
      std::string metrics_json;
      bool operator==(const Fingerprint&) const = default;
    };
    return Fingerprint{sim->events_processed(), sim->dispatch_hash(),
                       metrics::to_json(result.metrics, "adaptive-fault")};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace efac::stores
