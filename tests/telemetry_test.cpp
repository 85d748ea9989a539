// Virtual-time telemetry: sampling semantics (deltas, backfill, ring
// drops, series prefix), the efac.telemetry.v1 export round-trip (golden
// pin + validator rejections + older documents), and end-to-end
// bit-determinism of sampled series over a real workload.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "metrics/telemetry.hpp"
#include "sim/simulator.hpp"
#include "stores/factory.hpp"
#include "workload/runner.hpp"

namespace efac::metrics {
namespace {

using stores::SystemKind;

// ------------------------------------------------------- sampling semantics

TEST(TelemetrySampler, CounterDeltasAndGaugeProbes) {
  sim::Simulator sim;
  MetricsRegistry registry;
  TelemetrySampler sampler{sim};

  Counter& reqs = registry.counter("server.requests");
  sampler.add_counter_source(&registry, "server.requests", reqs);
  double depth = 0.0;
  sampler.add_gauge_probe(&registry, "server.depth",
                          [&depth] { return depth; });

  reqs += 5;
  depth = 3.0;
  sampler.sample(0);
  reqs += 2;
  depth = 7.0;
  sampler.sample(0);

  const TelemetrySnapshot snap = sampler.snapshot("t");
  ASSERT_EQ(snap.series.size(), 2u);
  EXPECT_EQ(snap.series[0].name, "server.requests");
  EXPECT_EQ(snap.series[0].kind, SeriesKind::kRate);
  EXPECT_EQ(snap.series[0].points, (std::vector<double>{5.0, 2.0}));
  EXPECT_EQ(snap.series[1].name, "server.depth");
  EXPECT_EQ(snap.series[1].kind, SeriesKind::kGauge);
  EXPECT_EQ(snap.series[1].points, (std::vector<double>{3.0, 7.0}));
  // The sampler counts its ticks itself and writes into no registry.
  EXPECT_EQ(sampler.samples_taken(), 2u);
  EXPECT_EQ(registry.find_counter("telemetry.samples"), nullptr);
}

TEST(TelemetrySampler, RegistryResetRestartsDeltaBaseline) {
  sim::Simulator sim;
  MetricsRegistry registry;
  TelemetrySampler sampler{sim};

  Counter& c = registry.counter("c");
  sampler.add_counter_source(&registry, "c", c);
  c += 5;
  sampler.sample(0);
  registry.reset();  // rewinds the cell under the sampler
  c += 2;
  sampler.sample(0);

  const TelemetrySnapshot snap = sampler.snapshot();
  // 2, not (2 - 5) wrapped around to ~2^64.
  EXPECT_EQ(snap.series[0].points, (std::vector<double>{5.0, 2.0}));
}

TEST(TelemetrySampler, LateSeriesBackfillsZeros) {
  sim::Simulator sim;
  MetricsRegistry registry;
  TelemetrySampler sampler{sim};

  Counter& a = registry.counter("a");
  sampler.add_counter_source(&registry, "a", a);
  sampler.sample(0);
  sampler.sample(0);
  sampler.sample(0);

  // A client created mid-run registers a new series: it must come up
  // tick-aligned with the existing ones.
  double g = 9.0;
  sampler.add_gauge_probe(&registry, "late", [&g] { return g; });
  sampler.sample(0);

  const TelemetrySnapshot snap = sampler.snapshot();
  ASSERT_EQ(snap.series.size(), 2u);
  EXPECT_EQ(snap.series[0].points.size(), 4u);
  EXPECT_EQ(snap.series[1].points, (std::vector<double>{0.0, 0.0, 0.0, 9.0}));
}

TEST(TelemetrySampler, RingDropsOldestAndAccountsForThem) {
  sim::Simulator sim;
  MetricsRegistry registry;
  TelemetrySampler sampler{sim};

  Counter& c = registry.counter("c");
  sampler.add_counter_source(&registry, "c", c);
  constexpr std::size_t kTicks = TelemetrySampler::kCapacity + 6;
  for (std::size_t i = 1; i <= kTicks; ++i) {
    c += i;
    sampler.sample(0);
  }

  EXPECT_EQ(sampler.samples_taken(), kTicks);
  EXPECT_EQ(sampler.dropped(), 6u);
  const TelemetrySnapshot snap = sampler.snapshot();
  EXPECT_EQ(snap.samples, kTicks);
  EXPECT_EQ(snap.dropped, 6u);
  // Only the newest kCapacity deltas survive, oldest evicted first: the
  // i-th tick's delta is i, so the ring holds 7 .. kTicks.
  const std::vector<double>& points = snap.series[0].points;
  ASSERT_EQ(points.size(), TelemetrySampler::kCapacity);
  EXPECT_EQ(points.front(), 7.0);
  EXPECT_EQ(points[1], 8.0);
  EXPECT_EQ(points.back(), static_cast<double>(kTicks));
  // start_ns shifts past the evicted ticks (all taken at t=0 here, so it
  // is the drop count times the period).
  EXPECT_EQ(snap.start_ns, 6u * TelemetrySampler::kPeriodNs);
}

TEST(TelemetrySampler, DropSourcesStopsContributions) {
  sim::Simulator sim;
  MetricsRegistry registry;
  TelemetrySampler sampler{sim};

  Counter& c = registry.counter("c");
  const int owner_a = 0;
  const int owner_b = 0;
  sampler.add_counter_source(&owner_a, "c", c);
  sampler.add_gauge_probe(&owner_b, "g", [] { return 1.0; });
  c += 3;
  sampler.sample(0);
  sampler.drop_sources(&owner_a);
  c += 3;
  sampler.sample(0);

  const TelemetrySnapshot snap = sampler.snapshot();
  EXPECT_EQ(snap.series[0].points, (std::vector<double>{3.0, 0.0}));
  EXPECT_EQ(snap.series[1].points, (std::vector<double>{1.0, 1.0}));
}

TEST(TelemetrySampler, PeriodicEventSamplesOnTheSimClock) {
  constexpr SimDuration kPeriod = TelemetrySampler::kPeriodNs;
  MetricsRegistry registry;
  Counter& c = registry.counter("c");
  const auto schedule = [&c](sim::Simulator& s) {
    s.call_at(kPeriod, [&c] { ++c; });
    s.call_at(2 * kPeriod + 1, [&c] { ++c; });
    s.call_at(4 * kPeriod - 1, [&c] { c += 2; });
    s.call_at(8 * kPeriod, [&c] { c += 5; });
  };

  sim::Simulator sim;
  TelemetrySampler sampler{sim};
  sampler.add_counter_source(&registry, "c", c);
  schedule(sim);
  // A tick lands on its boundary and sees every event at or before it:
  // the event on boundary 1 counts there, the ones just past boundary 2
  // and just short of boundary 4 count in ticks 3 and 4.
  sim.run_until(4 * kPeriod + kPeriod / 2);
  EXPECT_EQ(sampler.samples_taken(), 4u);
  TelemetrySnapshot snap = sampler.snapshot();
  EXPECT_EQ(snap.start_ns, kPeriod);
  EXPECT_EQ(snap.series[0].points, (std::vector<double>{1.0, 0.0, 1.0, 2.0}));

  // An idle gap: the event at 8 periods first fires boundaries 5-7, one
  // tick each; run_until then fires boundary 8, which sees that event.
  sim.run();
  EXPECT_EQ(sampler.samples_taken(), 7u);
  sim.run_until(8 * kPeriod);
  snap = sampler.snapshot();
  EXPECT_EQ(snap.series[0].points,
            (std::vector<double>{1.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0, 5.0}));

  // The ticks are no events: the same schedule without a sampler
  // dispatches the same events in the same order.
  sim::Simulator plain;
  schedule(plain);
  plain.run_until(4 * kPeriod + kPeriod / 2);
  plain.run();
  plain.run_until(8 * kPeriod);
  EXPECT_EQ(plain.dispatch_hash(), sim.dispatch_hash());
  EXPECT_EQ(plain.events_processed(), sim.events_processed());
}

TEST(TelemetrySampler, SeriesPrefixNamesEverySeries) {
  sim::Simulator sim;
  MetricsRegistry registry;
  TelemetrySampler sampler{sim, "s3/"};
  Counter& c = registry.counter("c");
  sampler.add_counter_source(&registry, "c", c);
  sampler.add_gauge_probe(&registry, "g", [] { return 2.0; });
  // A second source registered under the unprefixed name joins the same
  // "s3/c" series instead of opening a new one.
  sampler.add_counter_source(&c, "c", c);

  c += 1;
  sampler.sample(0);
  const TelemetrySnapshot snap = sampler.snapshot();
  ASSERT_EQ(snap.series.size(), 2u);
  EXPECT_EQ(snap.series[0].name, "s3/c");
  EXPECT_EQ(snap.series[0].points, (std::vector<double>{2.0}));
  EXPECT_EQ(snap.series[1].name, "s3/g");
}

// ------------------------------------------------------------------ export

/// Deterministic snapshot fixture used by the golden pin and round-trip.
std::vector<TelemetrySnapshot> golden_snapshots() {
  TelemetrySnapshot snap;
  snap.label = "run/update-only/eFactory/1KB/";
  snap.period_ns = 2000;
  snap.start_ns = 4000;
  snap.samples = 5;
  snap.dropped = 2;
  snap.series.push_back(TelemetrySnapshot::Series{
      "server.requests", SeriesKind::kRate, {3.0, 1.0, 0.5}});
  snap.series.push_back(TelemetrySnapshot::Series{
      "client.inflight", SeriesKind::kGauge, {2.0, 2.0, 1.0}});
  return {snap};
}

constexpr std::string_view kGoldenDoc = R"({
  "schema": "efac.telemetry.v1",
  "figure": "fig2",
  "snapshots": [
    {
      "label": "run/update-only/eFactory/1KB/",
      "period_ns": 2000,
      "start_ns": 4000,
      "samples": 5,
      "dropped": 2,
      "series": {
        "server.requests": {"kind": "rate", "points": [3, 1, 0.5]},
        "client.inflight": {"kind": "gauge", "points": [2, 2, 1]}
      }
    }
  ]
}
)";

TEST(TelemetryJson, GoldenDocumentPinsTheWriter) {
  EXPECT_EQ(to_telemetry_json(golden_snapshots(), "fig2"), kGoldenDoc);
}

TEST(TelemetryJson, RoundTripsThroughTheParser) {
  const Expected<std::vector<TelemetrySnapshot>> parsed =
      parse_telemetry_json(kGoldenDoc);
  ASSERT_TRUE(parsed.has_value()) << parsed.status().to_string();
  EXPECT_EQ(*parsed, golden_snapshots());
}

TEST(TelemetryJson, OlderDocumentsWithViolationsStillLoad) {
  // Earlier writers appended "violations" and "violations_dropped" to
  // every snapshot; the parser skips keys it does not know.
  const Expected<std::vector<TelemetrySnapshot>> parsed =
      parse_telemetry_json(R"({"schema": "efac.telemetry.v1", "figure": "f",
          "snapshots": [{"label": "x", "period_ns": 1, "start_ns": 0,
            "samples": 1, "dropped": 0,
            "series": {"s": {"kind": "rate", "points": [4]}},
            "violations": [{"rule": "rate(s) > 1", "t_ns": 0, "value": 4,
                            "threshold": 1}],
            "violations_dropped": 0}]})");
  ASSERT_TRUE(parsed.has_value()) << parsed.status().to_string();
  ASSERT_EQ(parsed->size(), 1u);
  ASSERT_EQ(parsed->front().series.size(), 1u);
  EXPECT_EQ(parsed->front().series[0].points, (std::vector<double>{4.0}));
}

TEST(TelemetryJson, SamplerSnapshotExportValidates) {
  sim::Simulator sim;
  MetricsRegistry registry;
  TelemetrySampler sampler{sim};
  Counter& c = registry.counter("c");
  sampler.add_counter_source(&registry, "c", c);
  c += 1;
  sampler.sample(0);
  sampler.sample(0);

  const std::string doc =
      to_telemetry_json({sampler.snapshot("label")}, "test");
  EXPECT_TRUE(validate_telemetry_json(doc).is_ok());
  const Expected<std::vector<TelemetrySnapshot>> parsed =
      parse_telemetry_json(doc);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ(parsed->front(), sampler.snapshot("label"));
}

TEST(TelemetryJson, RejectsBadDocuments) {
  // Wrong schema.
  EXPECT_FALSE(validate_telemetry_json(
                   R"({"schema": "efac.bench.v1", "figure": "f",
                       "snapshots": []})")
                   .is_ok());
  // Missing snapshots.
  EXPECT_FALSE(validate_telemetry_json(
                   R"({"schema": "efac.telemetry.v1", "figure": "f"})")
                   .is_ok());
  // Empty figure.
  EXPECT_FALSE(validate_telemetry_json(
                   R"({"schema": "efac.telemetry.v1", "figure": "",
                       "snapshots": []})")
                   .is_ok());
  // Snapshot missing required fields.
  EXPECT_FALSE(validate_telemetry_json(
                   R"({"schema": "efac.telemetry.v1", "figure": "f",
                       "snapshots": [{"label": "x"}]})")
                   .is_ok());
  // dropped > samples.
  EXPECT_FALSE(validate_telemetry_json(
                   R"({"schema": "efac.telemetry.v1", "figure": "f",
                       "snapshots": [{"label": "x", "period_ns": 1,
                         "start_ns": 0, "samples": 1, "dropped": 2,
                         "series": {}}]})")
                   .is_ok());
  // More points than retained samples.
  EXPECT_FALSE(validate_telemetry_json(
                   R"({"schema": "efac.telemetry.v1", "figure": "f",
                       "snapshots": [{"label": "x", "period_ns": 1,
                         "start_ns": 0, "samples": 2, "dropped": 1,
                         "series": {"s": {"kind": "rate",
                                          "points": [1, 2]}}}]})")
                   .is_ok());
  // Unknown series kind.
  EXPECT_FALSE(validate_telemetry_json(
                   R"({"schema": "efac.telemetry.v1", "figure": "f",
                       "snapshots": [{"label": "x", "period_ns": 1,
                         "start_ns": 0, "samples": 1, "dropped": 0,
                         "series": {"s": {"kind": "mystery",
                                          "points": []}}}]})")
                   .is_ok());
  // Trailing garbage.
  EXPECT_FALSE(validate_telemetry_json(
                   R"({"schema": "efac.telemetry.v1", "figure": "f",
                       "snapshots": []} extra)")
                   .is_ok());
  // The golden document itself is accepted.
  EXPECT_TRUE(validate_telemetry_json(kGoldenDoc).is_ok());
}

// -------------------------------------------------------------- end to end

workload::RunOptions e2e_options() {
  workload::RunOptions options;
  options.workload.mix = workload::Mix::kWriteIntensive;
  options.workload.key_count = 128;
  options.workload.key_len = 16;
  options.workload.value_len = 128;
  options.workload.seed = 0x7E1E;
  options.clients = 4;
  options.ops_per_client = 200;
  return options;
}

TelemetrySnapshot e2e_snapshot() {
  const workload::RunOptions options = e2e_options();
  stores::StoreConfig config = workload::sized_store_config(options);
  config.telemetry.enabled = true;
  sim::Simulator sim;
  stores::Cluster cluster =
      stores::make_cluster(sim, SystemKind::kEFactory, config);
  workload::run_workload(sim, cluster, options);
  TelemetrySampler* sampler = cluster.store->telemetry();
  EXPECT_NE(sampler, nullptr);
  return sampler->snapshot("e2e");
}

TEST(TelemetryEndToEnd, DisabledByDefault) {
  sim::Simulator sim;
  stores::Cluster cluster =
      stores::make_cluster(sim, SystemKind::kEFactory, {});
  EXPECT_EQ(cluster.store->telemetry(), nullptr);
}

TEST(TelemetryEndToEnd, SampledSeriesAreBitDeterministic) {
  const TelemetrySnapshot first = e2e_snapshot();
  const TelemetrySnapshot second = e2e_snapshot();
  EXPECT_EQ(first, second);

  EXPECT_GT(first.samples, 0u);
  ASSERT_FALSE(first.series.empty());
  // The workload actually moved the needle: the server request-rate
  // series saw traffic, and the eFactory queue-depth gauge exists.
  double requests = 0.0;
  bool saw_queue_depth = false;
  for (const TelemetrySnapshot::Series& s : first.series) {
    if (s.name == "server.requests") {
      for (const double p : s.points) requests += p;
    }
    if (s.name == "server.verify_queue_depth") saw_queue_depth = true;
  }
  EXPECT_GT(requests, 0.0);
  EXPECT_TRUE(saw_queue_depth);
}

}  // namespace
}  // namespace efac::metrics
