// Unit tests for the metrics layer: registry semantics, handle stability,
// prefix merging, virtual-time span tracing, and the JSON export / golden
// schema round-trip.
#include <gtest/gtest.h>

#include <string>

#include "metrics/json.hpp"
#include "metrics/metrics.hpp"
#include "metrics/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace efac::metrics {
namespace {

TEST(MetricsRegistry, CounterGetOrCreate) {
  MetricsRegistry registry;
  Counter& a = registry.counter("a");
  EXPECT_EQ(a.value(), 0u);
  ++a;
  a += 4;
  EXPECT_EQ(a.value(), 5u);
  // Second lookup returns the SAME cell.
  EXPECT_EQ(&registry.counter("a"), &a);
  // Counters read like integers at call sites.
  const std::uint64_t as_int = a;
  EXPECT_EQ(as_int, 5u);
}

TEST(MetricsRegistry, HandlesStayValidAcrossGrowth) {
  MetricsRegistry registry;
  Counter& first = registry.counter("first");
  Histogram& hist = registry.histogram("hist");
  for (int i = 0; i < 1000; ++i) {
    registry.counter("filler." + std::to_string(i));
    registry.histogram("hfiller." + std::to_string(i));
  }
  ++first;
  hist.record(7);
  EXPECT_EQ(registry.find_counter("first")->value(), 1u);
  EXPECT_EQ(registry.find_histogram("hist")->count(), 1u);
  EXPECT_EQ(&registry.counter("first"), &first);
}

TEST(MetricsRegistry, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("ratio");
  g.set(0.5);
  g.add(0.25);
  EXPECT_DOUBLE_EQ(registry.find_gauge("ratio")->value(), 0.75);
}

TEST(MetricsRegistry, FindUnknownReturnsNull) {
  MetricsRegistry registry;
  registry.counter("known");
  EXPECT_EQ(registry.find_counter("unknown"), nullptr);
  EXPECT_EQ(registry.find_gauge("known"), nullptr);  // wrong instrument kind
  EXPECT_EQ(registry.find_histogram("known"), nullptr);
}

TEST(MetricsRegistry, MergeFromAddsCountersAndMergesHistograms) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("ops") += 2;
  b.counter("ops") += 3;
  a.histogram("lat").record(10);
  b.histogram("lat").record(30);
  b.gauge("fill").set(0.9);

  a.merge_from(b);
  EXPECT_EQ(a.find_counter("ops")->value(), 5u);
  EXPECT_EQ(a.find_histogram("lat")->count(), 2u);
  EXPECT_EQ(a.find_histogram("lat")->sum(), 40u);
  EXPECT_DOUBLE_EQ(a.find_gauge("fill")->value(), 0.9);
}

TEST(MetricsRegistry, MergeFromWithPrefixNamespacesEverything) {
  MetricsRegistry run;
  run.counter("client.puts") += 7;
  run.histogram("span.put.total").record(123);

  MetricsRegistry sink;
  sink.merge_from(run, "put/Erda/4KB/");
  EXPECT_EQ(sink.find_counter("client.puts"), nullptr);
  EXPECT_EQ(sink.find_counter("put/Erda/4KB/client.puts")->value(), 7u);
  EXPECT_EQ(sink.find_histogram("put/Erda/4KB/span.put.total")->count(), 1u);
}

TEST(MetricsRegistry, MergeFromPrefixCollisionAddsIntoExistingCell) {
  // A prefixed merge that lands on a name the sink already has must fold
  // into the existing cell (and keep outstanding handles valid), not
  // create a shadow instrument.
  MetricsRegistry sink;
  Counter& existing = sink.counter("s0/client.puts");
  existing += 10;
  Histogram& existing_hist = sink.histogram("s0/span.put.total");
  existing_hist.record(100);

  MetricsRegistry shard;
  shard.counter("client.puts") += 5;
  shard.histogram("span.put.total").record(300);
  sink.merge_from(shard, "s0/");

  EXPECT_EQ(existing.value(), 15u);
  EXPECT_EQ(&sink.counter("s0/client.puts"), &existing);
  EXPECT_EQ(existing_hist.count(), 2u);
  EXPECT_EQ(existing_hist.sum(), 400u);

  // And the reverse collision: a sink name that LOOKS prefixed does not
  // leak into an unprefixed merge of the same source.
  sink.merge_from(shard);
  EXPECT_EQ(sink.find_counter("client.puts")->value(), 5u);
  EXPECT_EQ(existing.value(), 15u);
}

TEST(MetricsRegistry, MergeFromGaugeOverwriteIsLastWriterWins) {
  // Gauges overwrite on merge: merge order decides the surviving value,
  // and a re-merge of an updated source replaces, never accumulates.
  MetricsRegistry sink;
  MetricsRegistry first;
  MetricsRegistry second;
  first.gauge("pool.fill").set(0.25);
  second.gauge("pool.fill").set(0.75);

  sink.merge_from(first);
  sink.merge_from(second);
  EXPECT_DOUBLE_EQ(sink.find_gauge("pool.fill")->value(), 0.75);

  sink.merge_from(first);  // stale value merged later still overwrites
  EXPECT_DOUBLE_EQ(sink.find_gauge("pool.fill")->value(), 0.25);

  second.gauge("pool.fill").set(0.5);
  sink.merge_from(second);
  EXPECT_DOUBLE_EQ(sink.find_gauge("pool.fill")->value(), 0.5);
}

TEST(MetricsRegistry, MergeFromHistogramsMergeBucketWise) {
  // Merging two histograms must be indistinguishable from recording every
  // sample into one histogram directly: counts, sum, min/max, and every
  // quantile — pinned against the hand-built reference.
  static constexpr std::uint64_t kLeft[] = {3, 17, 190, 4096, 70000};
  static constexpr std::uint64_t kRight[] = {1, 17, 250, 1 << 20, 9};

  MetricsRegistry a;
  MetricsRegistry b;
  MetricsRegistry reference;
  Histogram& ref = reference.histogram("lat");
  for (const std::uint64_t v : kLeft) {
    a.histogram("lat").record(v);
    ref.record(v);
  }
  for (const std::uint64_t v : kRight) {
    b.histogram("lat").record(v);
    ref.record(v);
  }

  a.merge_from(b);
  const Histogram* merged = a.find_histogram("lat");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count(), ref.count());
  EXPECT_EQ(merged->sum(), ref.sum());
  EXPECT_EQ(merged->min(), ref.min());
  EXPECT_EQ(merged->max(), ref.max());
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(merged->percentile(q), ref.percentile(q)) << "q=" << q;
  }
  // The low samples land in exact linear buckets, so the median is exact.
  EXPECT_EQ(merged->count(), 10u);
  EXPECT_EQ(merged->min(), 1u);
}

TEST(MetricsRegistry, ResetZeroesButKeepsHandles) {
  MetricsRegistry registry;
  Counter& c = registry.counter("c");
  Histogram& h = registry.histogram("h");
  Gauge& g = registry.gauge("g");
  c += 9;
  h.record(5);
  g.set(1.5);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  ++c;  // the handle still points at the live cell
  EXPECT_EQ(registry.find_counter("c")->value(), 1u);
}

TEST(Tracer, SpanMeasuresVirtualTime) {
  sim::Simulator sim;
  MetricsRegistry registry;
  Tracer tracer{sim, registry};

  sim.spawn([](sim::Simulator& s, Tracer& t) -> sim::Task<void> {
    Span span{t, "phase"};
    co_await sim::delay(s, 500);
    span.finish();
  }(sim, tracer));
  sim.run_until(sim.now() + timeconst::kMillisecond);

  const Histogram* h = registry.find_histogram("span.phase");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(h->sum(), 500u);

  // A known cost recorded directly lands in the same kind of histogram.
  tracer.record("direct", 42);
  ASSERT_NE(registry.find_histogram("span.direct"), nullptr);
  EXPECT_EQ(registry.find_histogram("span.direct")->sum(), 42u);
}

TEST(Tracer, ScopeMacroRecordsOnScopeExit) {
  sim::Simulator sim;
  MetricsRegistry registry;
  Tracer tracer{sim, registry};

  sim.spawn([](sim::Simulator& s, Tracer& t) -> sim::Task<void> {
    TRACE_SPAN(t, "outer");
    co_await sim::delay(s, 200);
  }(sim, tracer));
  sim.run_until(sim.now() + timeconst::kMillisecond);

  const Histogram* h = registry.find_histogram("span.outer");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(h->sum(), 200u);
}

TEST(Tracer, CancelledSpanRecordsNothing) {
  sim::Simulator sim;
  MetricsRegistry registry;
  Tracer tracer{sim, registry};
  {
    Span span{tracer, "abandoned"};
    span.cancel();
  }
  EXPECT_EQ(registry.find_histogram("span.abandoned"), nullptr);
}

// ------------------------------------------------------------------ JSON

/// A registry shaped like a real (small) bench export.
MetricsRegistry sample_registry() {
  MetricsRegistry r;
  r.counter("get/Erda/4KB/client.gets") += 12;
  r.counter("get/Erda/4KB/client.gets_pure_rdma") += 12;
  r.gauge("get/Erda/4KB/pool.fill").set(0.25);
  Histogram& h = r.histogram("get/Erda/4KB/span.get.total");
  h.record(1000);
  h.record(3000);
  return r;
}

TEST(BenchJson, ExportValidatesAgainstOwnSchema) {
  const std::string doc = to_json(sample_registry(), "fig2");
  const Status status = validate_bench_json(doc);
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  // Spot-check the shape the tools depend on.
  EXPECT_NE(doc.find("\"schema\": \"efac.bench.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"figure\": \"fig2\""), std::string::npos);
  EXPECT_NE(doc.find("\"get/Erda/4KB/span.get.total\""), std::string::npos);
  EXPECT_NE(doc.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(doc.find("\"sum\": 4000"), std::string::npos);
}

TEST(BenchJson, EmptyRegistryStillValidates) {
  const MetricsRegistry empty;
  const Status status = validate_bench_json(to_json(empty, "fig1"));
  EXPECT_TRUE(status.is_ok()) << status.to_string();
}

// The golden document: the exact schema shape downstream consumers parse.
// If the exporter drifts, ExportValidatesAgainstOwnSchema still passes (it
// is self-consistent), but this literal stops matching the validator only
// if the SCHEMA changes — which is the thing that must stay deliberate.
constexpr std::string_view kGoldenDoc = R"({
  "schema": "efac.bench.v1",
  "figure": "fig2",
  "counters": {
    "get/Erda/4KB/client.gets": 12
  },
  "gauges": {
    "get/Erda/4KB/pool.fill": 0.25
  },
  "histograms": {
    "get/Erda/4KB/span.get.total": {"count": 2, "sum": 4000, "min": 1000,
                                    "max": 3000, "mean": 2000.0,
                                    "p50": 1000, "p90": 3000, "p95": 3000,
                                    "p99": 3000}
  }
})";

TEST(BenchJson, GoldenDocumentValidates) {
  const Status status = validate_bench_json(kGoldenDoc);
  EXPECT_TRUE(status.is_ok()) << status.to_string();
}

TEST(BenchJson, RejectsBadDocuments) {
  // Wrong schema string.
  EXPECT_FALSE(validate_bench_json(R"({"schema": "nope", "figure": "f",
      "counters": {}, "gauges": {}, "histograms": {}})")
                   .is_ok());
  // Missing top-level key.
  EXPECT_FALSE(validate_bench_json(R"({"schema": "efac.bench.v1",
      "figure": "f", "counters": {}, "gauges": {}})")
                   .is_ok());
  // Non-integral counter.
  EXPECT_FALSE(validate_bench_json(R"({"schema": "efac.bench.v1",
      "figure": "f", "counters": {"x": 1.5}, "gauges": {},
      "histograms": {}})")
                   .is_ok());
  // Negative counter.
  EXPECT_FALSE(validate_bench_json(R"({"schema": "efac.bench.v1",
      "figure": "f", "counters": {"x": -2}, "gauges": {},
      "histograms": {}})")
                   .is_ok());
  // Histogram missing a required field.
  EXPECT_FALSE(validate_bench_json(R"({"schema": "efac.bench.v1",
      "figure": "f", "counters": {}, "gauges": {},
      "histograms": {"h": {"count": 1, "sum": 2, "min": 1, "max": 1,
                           "mean": 1.0, "p50": 1, "p90": 1}}})")
                   .is_ok());
  // Trailing garbage.
  EXPECT_FALSE(validate_bench_json(R"({"schema": "efac.bench.v1",
      "figure": "f", "counters": {}, "gauges": {},
      "histograms": {}} extra)")
                   .is_ok());
  // Not JSON at all.
  EXPECT_FALSE(validate_bench_json("BENCH").is_ok());
}

TEST(BenchJson, UnknownTopLevelKeysAreForwardCompatible) {
  const Status status = validate_bench_json(R"({"schema": "efac.bench.v1",
      "figure": "f", "counters": {}, "gauges": {}, "histograms": {},
      "extra": {"nested": [1, 2, {"deep": null}]}})");
  EXPECT_TRUE(status.is_ok()) << status.to_string();
}

TEST(BenchJson, EscapesAwkwardNames) {
  MetricsRegistry r;
  r.counter("weird \"name\"\nwith\tescapes\\") += 1;
  const std::string doc = to_json(r, "fig1");
  const Status status = validate_bench_json(doc);
  EXPECT_TRUE(status.is_ok()) << status.to_string();
}

}  // namespace
}  // namespace efac::metrics
