// Flight-recorder coverage: recording is off by default and, with the
// telemetry sampler, schedule- and registry-neutral when on; a traced run
// is bit-deterministic under a fixed seed; the Chrome export passes (and
// bad documents fail) the golden-schema validator; the binary dump
// round-trips; the ring drops oldest-first.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/json.hpp"
#include "stores/efactory.hpp"
#include "stores/sharding.hpp"
#include "store_test_util.hpp"
#include "trace/chrome.hpp"
#include "trace/event_log.hpp"

namespace efac::trace {
namespace {

using stores::SystemKind;
using testutil::TestCluster;

/// One deterministic workload: N puts, settle (so the verifier runs), N
/// gets. Returns the trace snapshot plus what the instruments must leave
/// alone: the scheduler's witnesses and every registry.
struct TracedRun {
  EventLog::Snapshot snapshot;
  std::uint64_t dispatch_hash = 0;
  std::uint64_t events_processed = 0;
  SimTime end_time = 0;
  std::string registries;  ///< metrics::to_json of the stores and client
};

/// The workload as one actor; sets `*done` at the end.
sim::Task<void> put_settle_get(sim::Simulator& sim, stores::KvClient& client,
                               bool* done) {
  const workload::Workload wl{workload::WorkloadConfig{
      .key_count = 8, .key_len = 32, .value_len = 256}};
  for (std::uint64_t k = 0; k < 8; ++k) {
    const Status s = co_await client.put(wl.key_at(k), wl.value_for(k, 1));
    EXPECT_TRUE(s.is_ok()) << s.to_string();
  }
  co_await sim::delay(sim, 500 * timeconst::kMicrosecond);
  for (std::uint64_t k = 0; k < 8; ++k) {
    EXPECT_TRUE((co_await client.get(wl.key_at(k))).has_value());
  }
  *done = true;
}

/// Run put_settle_get on `client` in 1 ms slices and record the witnesses.
TracedRun run_workload(sim::Simulator& sim, stores::KvClient& client,
                       const std::vector<const stores::StoreBase*>& stores) {
  bool done = false;
  sim.spawn(put_settle_get(sim, client, &done));
  while (!done) sim.run_until(sim.now() + timeconst::kMillisecond);
  TracedRun run;
  run.dispatch_hash = sim.dispatch_hash();
  run.events_processed = sim.events_processed();
  run.end_time = sim.now();
  metrics::MetricsRegistry all;
  for (std::size_t i = 0; i < stores.size(); ++i) {
    all.merge_from(stores[i]->metrics(), "store" + std::to_string(i) + "/");
  }
  client.merge_metrics_into(all, "client/");
  run.registries = metrics::to_json(all, "test");
  return run;
}

/// The workload on one `kind` cluster, with the flight recorder and the
/// telemetry sampler both on or both off.
TracedRun run_traced(SystemKind kind, bool instrumented,
                     bool adaptive = false) {
  stores::StoreConfig config = testutil::small_config();
  config.trace.enabled = instrumented;
  config.telemetry.enabled = instrumented;
  stores::ClientOptions options = testutil::hinted(32, 256);
  options.adaptive.enabled = adaptive;
  TestCluster tc{kind, config, options};
  TracedRun run = run_workload(tc.sim, *tc.client, {tc.cluster.store.get()});
  if (EventLog* log = tc.cluster.store->trace_log(); log != nullptr) {
    run.snapshot = log->snapshot("test");
  }
  return run;
}

/// The same on a two-shard eFactory cluster: two samplers, one simulator.
TracedRun run_two_shards(bool instrumented) {
  stores::ClusterConfig config;
  config.num_shards = 2;
  config.store = testutil::small_config();
  config.store.trace.enabled = instrumented;
  config.store.telemetry.enabled = instrumented;
  sim::Simulator sim;
  stores::ShardedCluster cluster =
      stores::make_sharded_cluster(sim, SystemKind::kEFactory, config);
  cluster.start();
  const std::unique_ptr<stores::KvClient> client =
      cluster.make_client(testutil::hinted(32, 256));
  return run_workload(sim, *client, {&cluster.store(0), &cluster.store(1)});
}

/// A traced run over every client path a system has: PUTs, a settle, two
/// rounds of GETs (the second is where an adaptive client's speculative
/// pair READ fires), one key displaced past its ideal slot, then one
/// put_batch and one get_batch with no settle in between.
struct ProtocolRun {
  EventLog::Snapshot snapshot;
  std::uint64_t gets = 0;
  std::uint64_t gets_pure_rdma = 0;
  std::uint64_t gets_rpc_path = 0;
};

ProtocolRun run_protocol_paths(SystemKind kind, bool adaptive) {
  stores::StoreConfig config = testutil::small_config();
  config.trace.enabled = true;
  stores::ClientOptions options = testutil::hinted(32, 256);
  options.adaptive.enabled = adaptive;
  TestCluster tc{kind, config, options};
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 8, .key_len = 32, .value_len = 256}};
  // The first key index past the workload that shares key 0's ideal slot:
  // it is PUT after key 0, so it lands one slot further on.
  const std::size_t mask = config.hash_buckets - 1;
  const std::size_t home = kv::hash_key(wl.key_at(0)) & mask;
  std::uint64_t displaced = 8;
  while ((kv::hash_key(wl.key_at(displaced)) & mask) != home) ++displaced;
  std::vector<std::uint64_t> keys{0, 1, 2, 3, 4, 5, 6, 7, displaced};

  for (const std::uint64_t k : keys) {
    EXPECT_TRUE(tc.put_sync(wl.key_at(k), wl.value_for(k, 1)).is_ok());
  }
  tc.settle();
  for (int round = 0; round < 2; ++round) {
    for (const std::uint64_t k : keys) {
      const Expected<Bytes> got = tc.get_sync(wl.key_at(k));
      EXPECT_TRUE(got.has_value() && *got == wl.value_for(k, 1))
          << stores::to_string(kind) << " key " << k;
    }
  }
  bool done = false;
  tc.sim.spawn([](stores::KvClient& c, const workload::Workload& w,
                  bool* flag) -> sim::Task<void> {
    std::vector<stores::KvClient::PutOp> ops;
    std::vector<Bytes> batch_keys;
    for (std::uint64_t k = 0; k < 4; ++k) {
      ops.push_back({w.key_at(k), w.value_for(k, 2)});
      batch_keys.push_back(w.key_at(k));
    }
    for (const Status& s : co_await c.put_batch(std::move(ops))) {
      EXPECT_TRUE(s.is_ok()) << s.to_string();
    }
    const std::vector<Expected<Bytes>> got =
        co_await c.get_batch(std::move(batch_keys));
    for (std::uint64_t k = 0; k < got.size(); ++k) {
      EXPECT_TRUE(got[k].has_value() && *got[k] == w.value_for(k, 2))
          << "batch member " << k;
    }
    *flag = true;
  }(*tc.client, wl, &done));
  tc.run_until_done([&] { return done; });

  ProtocolRun run;
  run.snapshot = tc.cluster.store->trace_log()->snapshot("test");
  const stores::KvClient::Counters& stats = tc.client->stats();
  run.gets = stats.gets.value();
  run.gets_pure_rdma = stats.gets_pure_rdma.value();
  run.gets_rpc_path = stats.gets_rpc_path.value();
  return run;
}

/// FNV-1a over a serialized dump.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
  }
  return h;
}

bool has_event(const EventLog::Snapshot& snap, EventType type) {
  for (const Event& e : snap.events) {
    if (e.type == static_cast<std::uint8_t>(type)) return true;
  }
  return false;
}

TEST(FlightRecorder, OffByDefault) {
  TestCluster tc{SystemKind::kEFactory};
  EXPECT_EQ(tc.cluster.store->trace_log(), nullptr);
}

TEST(FlightRecorder, RecordsOpLifecycleAndActorTracks) {
  const TracedRun run = run_traced(SystemKind::kEFactory, true);
  const EventLog::Snapshot& snap = run.snapshot;

  // Actor tracks registered in construction order: server and fault
  // injector from StoreBase, eFactory's verifier and cleaner, then the
  // client attached by Cluster::make_client.
  ASSERT_GE(snap.tracks.size(), 5u);
  EXPECT_EQ(snap.tracks[0], "server");
  EXPECT_EQ(snap.tracks[1], "faults");
  EXPECT_EQ(snap.tracks[2], "verifier");
  EXPECT_EQ(snap.tracks[3], "cleaner");
  EXPECT_EQ(snap.tracks[4].substr(0, 7), "client-");

  for (const EventType type :
       {EventType::kOpBegin, EventType::kOpEnd, EventType::kRpcIssue,
        EventType::kRpcDeliver, EventType::kQpVerb, EventType::kObjBind,
        EventType::kVerifyScan, EventType::kVerifyFlush,
        EventType::kFlagSet, EventType::kGetPath}) {
    EXPECT_TRUE(has_event(snap, type))
        << "missing " << kEventNames[static_cast<std::size_t>(type)];
  }

  // Every lifecycle event carries a nonzero causal op id, and the op ends
  // report success for this clean workload.
  for (const Event& e : snap.events) {
    const auto type = static_cast<EventType>(e.type);
    if (type == EventType::kOpBegin || type == EventType::kOpEnd) {
      EXPECT_NE(e.op, 0u);
    }
    if (type == EventType::kOpEnd) {
      EXPECT_EQ(e.a, static_cast<std::uint64_t>(StatusCode::kOk));
    }
  }
}

TEST(FlightRecorder, RecordingDoesNotPerturbTheSchedule) {
  // The instruments only read: with the flight recorder and the telemetry
  // sampler on or off, the same seeded workload must dispatch the same
  // events in the same order and leave every registry the same, on every
  // system, the adaptive client, and two samplers sharing a simulator.
  const auto expect_neutral = [](const TracedRun& off, const TracedRun& on,
                                 const std::string& what) {
    EXPECT_EQ(off.dispatch_hash, on.dispatch_hash) << what;
    EXPECT_EQ(off.events_processed, on.events_processed) << what;
    EXPECT_EQ(off.end_time, on.end_time) << what;
    EXPECT_EQ(off.registries, on.registries) << what;
    EXPECT_TRUE(off.snapshot.events.empty()) << what;
  };
  for (const SystemKind kind : stores::all_systems()) {
    for (const bool adaptive : {false, true}) {
      if (adaptive && kind != SystemKind::kEFactory) continue;
      const std::string what = std::string{stores::to_string(kind)} +
                               (adaptive ? " (adaptive)" : "");
      const TracedRun on = run_traced(kind, true, adaptive);
      expect_neutral(run_traced(kind, false, adaptive), on, what);
      EXPECT_FALSE(on.snapshot.events.empty()) << what;
    }
  }
  expect_neutral(run_two_shards(false), run_two_shards(true), "two shards");
}

TEST(FlightRecorder, TracedRunsAreBitDeterministic) {
  const TracedRun a = run_traced(SystemKind::kEFactory, true);
  const TracedRun b = run_traced(SystemKind::kEFactory, true);
  EXPECT_EQ(a.dispatch_hash, b.dispatch_hash);
  ASSERT_EQ(a.snapshot.events.size(), b.snapshot.events.size());
  EXPECT_EQ(a.snapshot, b.snapshot);
  // And so are the serialized forms, byte for byte.
  EXPECT_EQ(to_binary({a.snapshot}), to_binary({b.snapshot}));
  EXPECT_EQ(to_chrome_trace({a.snapshot}), to_chrome_trace({b.snapshot}));
}

TEST(FlightRecorder, ChromeExportPassesGoldenSchema) {
  const TracedRun run = run_traced(SystemKind::kEFactory, true);
  const std::string doc = to_chrome_trace({run.snapshot});
  const Status status = validate_chrome_trace(doc);
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  // Empty exports are valid too (a traced bench whose filter matched
  // nothing still writes a loadable file).
  EXPECT_TRUE(validate_chrome_trace(to_chrome_trace({})).is_ok());
}

TEST(FlightRecorder, ValidatorRejectsMalformedDocuments) {
  EXPECT_FALSE(validate_chrome_trace("").is_ok());
  EXPECT_FALSE(validate_chrome_trace("[]").is_ok());
  EXPECT_FALSE(validate_chrome_trace("{}").is_ok());  // no traceEvents
  EXPECT_FALSE(validate_chrome_trace("{\"traceEvents\": 3}").is_ok());
  EXPECT_FALSE(  // element is not an object
      validate_chrome_trace("{\"traceEvents\": [7]}").is_ok());
  EXPECT_FALSE(  // missing ph/name/pid
      validate_chrome_trace("{\"traceEvents\": [{\"ts\": 1}]}").is_ok());
  EXPECT_FALSE(  // "X" slice without a dur
      validate_chrome_trace("{\"traceEvents\": [{\"ph\": \"X\", \"name\": "
                            "\"x\", \"pid\": 1, \"tid\": 1, \"ts\": 0}]}")
          .is_ok());
  EXPECT_FALSE(  // flow event without an id
      validate_chrome_trace("{\"traceEvents\": [{\"ph\": \"s\", \"name\": "
                            "\"f\", \"pid\": 1, \"tid\": 1, \"ts\": 0}]}")
          .is_ok());
  // Trailing garbage after a valid document.
  const std::string good = to_chrome_trace({});
  EXPECT_TRUE(validate_chrome_trace(good).is_ok());
  EXPECT_FALSE(validate_chrome_trace(good + "x").is_ok());
}

TEST(FlightRecorder, BinaryDumpRoundTrips) {
  const TracedRun run = run_traced(SystemKind::kEFactory, true);
  EventLog::Snapshot second = run.snapshot;
  second.label = "second/";
  const std::string blob = to_binary({run.snapshot, second});
  std::vector<EventLog::Snapshot> parsed;
  const Status status = read_binary(blob, &parsed);
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], run.snapshot);
  EXPECT_EQ(parsed[1], second);

  // Corruption is detected, not crashed on.
  EXPECT_FALSE(read_binary("nope", &parsed).is_ok());
  EXPECT_FALSE(read_binary(blob.substr(0, blob.size() - 7), &parsed).is_ok());
  EXPECT_FALSE(read_binary(blob + "x", &parsed).is_ok());
}

TEST(FlightRecorder, RejectedDumpLeavesOutputEmpty) {
  // All-or-nothing reader contract (found while building the eftr_fuzz
  // harness): a rejected dump must not hand trace_inspect a torn,
  // half-parsed snapshot — and a bad magic must clear stale output from
  // a previous successful parse.
  const TracedRun run = run_traced(SystemKind::kEFactory, true);
  const std::string blob = to_binary({run.snapshot, run.snapshot});
  std::vector<EventLog::Snapshot> parsed;
  ASSERT_TRUE(read_binary(blob, &parsed).is_ok());
  ASSERT_FALSE(parsed.empty());

  // Truncated mid-second-snapshot: the first snapshot parsed fine, but
  // the error must discard it too.
  EXPECT_FALSE(read_binary(blob.substr(0, blob.size() - 7), &parsed).is_ok());
  EXPECT_TRUE(parsed.empty());

  ASSERT_TRUE(read_binary(blob, &parsed).is_ok());
  EXPECT_FALSE(read_binary("not an EFTR dump", &parsed).is_ok());
  EXPECT_TRUE(parsed.empty());

  ASSERT_TRUE(read_binary(blob, &parsed).is_ok());
  EXPECT_FALSE(read_binary(blob + "x", &parsed).is_ok());
  EXPECT_TRUE(parsed.empty());
}

TEST(FlightRecorder, RingDropsOldestFirstAndCountsDrops) {
  sim::Simulator sim;
  EventLog log{sim};
  const std::uint16_t track = log.register_track("t");
  constexpr std::uint64_t kEmitted = EventLog::kCapacity + 12;
  for (std::uint64_t i = 0; i < kEmitted; ++i) {
    log.emit(track, 0, EventType::kFault, 0, /*a=*/i);
  }
  EXPECT_EQ(log.total_emitted(), kEmitted);
  EXPECT_EQ(log.dropped(), 12u);
  const EventLog::Snapshot snap = log.snapshot();
  ASSERT_EQ(snap.events.size(), EventLog::kCapacity);
  EXPECT_EQ(snap.dropped, 12u);
  // The survivors are the kCapacity most recent, in emission order.
  for (std::size_t i = 0; i < EventLog::kCapacity; ++i) {
    EXPECT_EQ(snap.events[i].a, 12 + i);
  }
}

TEST(FlightRecorder, ClientOnlyKnobTracesEveryBaseline) {
  // Every system wires the recorder through its client and store; a
  // quick put/get per system must yield op lifecycles in each log.
  for (const SystemKind kind : stores::all_systems()) {
    const TracedRun run = run_traced(kind, true);
    EXPECT_TRUE(has_event(run.snapshot, EventType::kOpBegin))
        << stores::to_string(kind);
    EXPECT_TRUE(has_event(run.snapshot, EventType::kOpEnd))
        << stores::to_string(kind);
    const Status status = validate_chrome_trace(to_chrome_trace(
        {run.snapshot}));
    EXPECT_TRUE(status.is_ok())
        << stores::to_string(kind) << ": " << status.to_string();
  }
}

// The flight-recorder stream of every client path, pinned per system (and
// for eFactory's adaptive client): the same verbs in the same order, with
// the same op ids, path reasons and timestamps. A refactor of the client
// protocols must leave every digest unchanged.
TEST(FlightRecorder, ProtocolPathStreamsMatchGoldenDigests) {
  struct Case {
    SystemKind kind;
    bool adaptive;
    std::uint64_t digest;
  };
  const std::vector<Case> golden{
      {SystemKind::kEFactory, false, 0x89b8213ae6b59874ULL},
      {SystemKind::kEFactoryNoHr, false, 0xd8daf19b990dce7bULL},
      {SystemKind::kSaw, false, 0xcc7d6214cd851e0aULL},
      {SystemKind::kImm, false, 0x9ca9caf9d70e2fb7ULL},
      {SystemKind::kErda, false, 0x691d14142a691a37ULL},
      {SystemKind::kForca, false, 0x87b98ec5f046b926ULL},
      {SystemKind::kRpc, false, 0x7b0425a6fd301e1dULL},
      {SystemKind::kCaNoPersist, false, 0x94cdc15ada803d58ULL},
      {SystemKind::kRcommit, false, 0x15b11fed86bb0adeULL},
      {SystemKind::kInPlace, false, 0x617ce91ca946d069ULL},
      {SystemKind::kEFactory, true, 0x747d1347043c16f0ULL},
  };
  ASSERT_EQ(golden.size(), stores::all_systems().size() + 1);
  for (const Case& c : golden) {
    const ProtocolRun run = run_protocol_paths(c.kind, c.adaptive);
    EXPECT_EQ(run.snapshot.dropped, 0u);
    EXPECT_EQ(fnv1a(to_binary({run.snapshot})), c.digest)
        << stores::to_string(c.kind) << (c.adaptive ? " (adaptive)" : "")
        << ": 0x" << std::hex << fnv1a(to_binary({run.snapshot}));
  }
}

// Every GET notes its read path once: the kGetPath events count the
// GETs, the one-sided reason counts the pure-RDMA GETs, and every other
// reason counts the RPC-path GETs.
TEST(FlightRecorder, GetPathEventsMatchReadCounters) {
  for (const SystemKind kind : stores::all_systems()) {
    for (const bool adaptive : {false, true}) {
      if (adaptive && kind != SystemKind::kEFactory) continue;
      const ProtocolRun run = run_protocol_paths(kind, adaptive);
      std::uint64_t paths = 0;
      std::uint64_t fast = 0;
      for (const Event& e : run.snapshot.events) {
        if (e.type != static_cast<std::uint8_t>(EventType::kGetPath)) continue;
        ++paths;
        if (e.aux == static_cast<std::uint8_t>(GetPath::kFastOneSided)) ++fast;
      }
      const std::string name = std::string{stores::to_string(kind)} +
                               (adaptive ? " (adaptive)" : "");
      EXPECT_GT(run.gets, 0u) << name;
      EXPECT_EQ(paths, run.gets) << name;
      EXPECT_EQ(fast, run.gets_pure_rdma) << name;
      EXPECT_EQ(paths - fast, run.gets_rpc_path) << name;
    }
  }
}

}  // namespace
}  // namespace efac::trace
