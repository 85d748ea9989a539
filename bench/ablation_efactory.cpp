// Ablations of eFactory's design choices (DESIGN.md §6) — not paper
// figures, but quantifications of the mechanisms the paper credits:
//
//   A. Multiple receiving regions (batched recv) vs single-recv posting —
//      the stated source of eFactory's PUT edge over Erda.
//   B. Background-thread cadence (idle/retry period) vs the durability-
//      flag hit rate of reads — how fast verification must chase writes
//      for the hybrid read to pay off.
//   C. Server worker count vs update-only throughput — where the flush-on-
//      critical-path systems saturate.
#include "bench_common.hpp"

#include "stores/efactory.hpp"

namespace efac::bench {
namespace {

using stores::SystemKind;
using workload::Mix;

workload::RunOptions base_options(Mix mix) {
  workload::RunOptions options;
  options.workload.mix = mix;
  options.workload.key_count = 1024;
  options.workload.value_len = 1024;
  options.clients = 8;
  options.ops_per_client = 800;
  return options;
}

workload::RunResult run_with(const workload::RunOptions& options,
                             stores::StoreConfig config,
                             const std::string& sink_prefix) {
  auto sim = std::make_unique<sim::Simulator>();
  stores::Cluster cluster =
      stores::make_cluster(*sim, SystemKind::kEFactory, config);
  workload::RunResult result = workload::run_workload(*sim, cluster, options);
  metrics_sink().merge_from(result.metrics, sink_prefix);
  sim.reset();
  return result;
}

/// Share of the run's GETs served by pure one-sided reads, in percent.
double pure_read_pct(const workload::RunResult& result) {
  const metrics::Counter* gets = result.metrics.find_counter("client.gets");
  const metrics::Counter* pure =
      result.metrics.find_counter("client.gets_pure_rdma");
  if (gets == nullptr || pure == nullptr || gets->value() == 0) return 0.0;
  return 100.0 * static_cast<double>(pure->value()) /
         static_cast<double>(gets->value());
}

// ---- A: receive-region batching ----------------------------------------

void recv_mode_ablation(benchmark::State& state, bool batched) {
  const workload::RunOptions options = base_options(Mix::kUpdateOnly);
  for (auto _ : state) {
    stores::StoreConfig config = workload::sized_store_config(options);
    // EFactoryStore forces batched mode; to ablate, override the batched
    // cost with the single-recv figure.
    if (!batched) {
      config.cpu.recv_handling_batched_ns = config.cpu.recv_handling_ns;
    }
    const workload::RunResult result = run_with(
        options, config,
        batched ? "ablation/recv/batched/" : "ablation/recv/single/");
    state.SetIterationTime(static_cast<double>(result.span_ns) * 1e-9);
    state.counters["Mops"] = result.mops;
    Summary::instance().add(
        "Ablation A — receive regions (update-only, 1KB, 8 clients)",
        batched ? "multiple recv regions (eFactory)" : "single recv posting",
        "Mops", result.mops, 3);
  }
}

// ---- B: background-thread cadence ---------------------------------------

void bg_cadence_ablation(benchmark::State& state, SimDuration period_ns) {
  const workload::RunOptions options = base_options(Mix::kWriteIntensive);
  for (auto _ : state) {
    stores::StoreConfig config = workload::sized_store_config(options);
    config.bg_idle_ns = period_ns;
    config.bg_retry_ns = period_ns;
    const workload::RunResult result = run_with(
        options, config,
        "ablation/bg_cadence/" + std::to_string(period_ns / 1000) + "us/");
    state.SetIterationTime(static_cast<double>(result.span_ns) * 1e-9);
    const double pure_pct = pure_read_pct(result);
    state.counters["pure_read_pct"] = pure_pct;
    state.counters["Mops"] = result.mops;
    const std::string row =
        std::to_string(period_ns / 1000) + "us cadence";
    const std::string table =
        "Ablation B — background cadence vs durability-flag hits "
        "(write-intensive, 1KB)";
    Summary::instance().add(table, row, "pure-RDMA reads %", pure_pct, 1);
    Summary::instance().add(table, row, "Mops", result.mops, 3);
  }
}

// ---- C: server worker count ---------------------------------------------

void worker_ablation(benchmark::State& state, SystemKind kind,
                     std::size_t workers) {
  const workload::RunOptions options = base_options(Mix::kUpdateOnly);
  for (auto _ : state) {
    stores::StoreConfig config = workload::sized_store_config(options);
    config.server_workers = workers;
    auto sim = std::make_unique<sim::Simulator>();
    stores::Cluster cluster = stores::make_cluster(*sim, kind, config);
    const workload::RunResult result =
        workload::run_workload(*sim, cluster, options);
    metrics_sink().merge_from(
        result.metrics, "ablation/workers/" +
                            std::string{stores::to_string(kind)} + "/" +
                            std::to_string(workers) + "/");
    sim.reset();
    state.SetIterationTime(static_cast<double>(result.span_ns) * 1e-9);
    state.counters["Mops"] = result.mops;
    Summary::instance().add(
        "Ablation C — server workers vs update-only throughput (Mops)",
        std::string{stores::to_string(kind)}, std::to_string(workers),
        result.mops, 3);
  }
}

// ---- D: CRC speed vs the hybrid read's value ----------------------------
//
// EXPERIMENTS.md documents that on write-heavy mixes our eFactory loses
// the paper's +13 % hybrid-read gain. This ablation sweeps the CRC rate
// from the measured software figure (1.05 ns/B, per Fig. 2) down to
// hardware-CRC32 territory. Result: total throughput rises with cheaper
// verification, but the hybrid gain stays NEGATIVE (~-7..-9 %) and the
// pure-read rate is pinned at ~60 % — so the misses are *structural*, not
// a verification-capacity problem: under a 50 %-write Zipfian mix, reads
// of a hot key routinely race that key's just-issued RDMA WRITE, a window
// no verifier speed can close. The wasted optimistic reads on those
// misses are what the w/o-hr variant avoids.

void crc_speed_ablation(benchmark::State& state, double per_byte_ns) {
  workload::RunOptions options = base_options(Mix::kWriteIntensive);
  options.workload.value_len = 4096;
  for (auto _ : state) {
    auto run_variant = [&](stores::SystemKind kind) {
      stores::StoreConfig config = workload::sized_store_config(options);
      config.crc.per_byte_ns = per_byte_ns;
      auto sim = std::make_unique<sim::Simulator>();
      stores::Cluster cluster = stores::make_cluster(*sim, kind, config);
      workload::RunResult r = workload::run_workload(*sim, cluster, options);
      metrics_sink().merge_from(
          r.metrics, "ablation/crc_rate/" + TextTable::num(per_byte_ns, 2) +
                         "/" + std::string{stores::to_string(kind)} + "/");
      sim.reset();
      return r;
    };
    const workload::RunResult with_hr =
        run_variant(stores::SystemKind::kEFactory);
    const workload::RunResult without_hr =
        run_variant(stores::SystemKind::kEFactoryNoHr);
    state.SetIterationTime(
        static_cast<double>(with_hr.span_ns + without_hr.span_ns) * 1e-9);
    const double gain_pct =
        100.0 * (with_hr.mops - without_hr.mops) / without_hr.mops;
    const double pure_pct = pure_read_pct(with_hr);
    state.counters["hybrid_gain_pct"] = gain_pct;
    const std::string row = TextTable::num(per_byte_ns, 2) + " ns/B";
    const std::string table =
        "Ablation D — CRC rate vs hybrid-read gain (write-intensive, 4KB)";
    Summary::instance().add(table, row, "eFactory Mops", with_hr.mops, 3);
    Summary::instance().add(table, row, "w/o hr Mops", without_hr.mops, 3);
    Summary::instance().add(table, row, "hybrid gain %", gain_pct, 1);
    Summary::instance().add(table, row, "pure reads %", pure_pct, 1);
  }
}

const int registrar = [] {
  for (const double rate : {1.05, 0.5, 0.2, 0.05}) {
    std::string name = "ablation/crc_rate/";
    name += TextTable::num(rate, 2);
    benchmark::RegisterBenchmark(name.c_str(),
                                 [rate](benchmark::State& state) {
                                   crc_speed_ablation(state, rate);
                                 })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  for (const bool batched : {true, false}) {
    std::string name = "ablation/recv_mode/";
    name += batched ? "batched" : "single";
    benchmark::RegisterBenchmark(name.c_str(),
                                 [batched](benchmark::State& state) {
                                   recv_mode_ablation(state, batched);
                                 })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  for (const SimDuration period :
       {1ull * timeconst::kMicrosecond, 3ull * timeconst::kMicrosecond,
        10ull * timeconst::kMicrosecond, 50ull * timeconst::kMicrosecond}) {
    std::string name = "ablation/bg_cadence/";
    name += std::to_string(period / 1000);
    name += "us";
    benchmark::RegisterBenchmark(name.c_str(),
                                 [period](benchmark::State& state) {
                                   bg_cadence_ablation(state, period);
                                 })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  for (const SystemKind kind :
       {SystemKind::kEFactory, SystemKind::kImm, SystemKind::kForca}) {
    for (const std::size_t workers : {1u, 2u, 4u, 6u, 8u}) {
      std::string name = "ablation/workers/";
      name += stores::to_string(kind);
      name += "/";
      name += std::to_string(workers);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [kind, workers](benchmark::State& state) {
            worker_ablation(state, kind, workers);
          })
          ->Iterations(1)
          ->UseManualTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
  return 0;
}();

}  // namespace
}  // namespace efac::bench

int main(int argc, char** argv) { return efac::bench::bench_main(argc, argv, "ablation"); }
