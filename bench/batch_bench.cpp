// Batched PUT throughput: virtual-time ops/s vs batch size.
//
// One client drives update-only PUTs through `KvClient::put_batch` at
// batch sizes 1–64 across the paper's small-to-page value sizes. Batch
// size 1 is the plain synchronous `put()` — today's baseline. Systems
// with a batch-reserve alloc path (eFactory, IMM, Erda) amortize the
// allocation round trip and the WRITE post overhead across the batch;
// SAW has no batch path and shows what window pipelining alone buys.
//
// Exported to BENCH_batch.json (efac.bench.v1) under
// `batch/<system>/<size>/B<batch>/`: throughput (`mops`), the per-op
// server round-trip cost (`alloc_rpcs_per_op`, ~1/batch on eFactory and
// Erda), the server request/alloc deltas, and every client counter —
// `client.batches`, `client.inflight_peak`, retry totals.
//
// Expected shape: throughput grows with batch size, with a >10 % win
// over batch=1 already at 64–256 B on eFactory and IMM, where the alloc
// RPC dominates small-payload PUT latency.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/assert.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "stores/factory.hpp"
#include "workload/runner.hpp"

namespace efac::bench {
namespace {

using stores::SystemKind;

const std::vector<SystemKind>& batch_systems() {
  static const std::vector<SystemKind> kSystems{
      SystemKind::kEFactory,
      SystemKind::kImm,
      SystemKind::kErda,
      // No batch-reserve path: falls back to pipelined single ops, the
      // "window-only" comparison line.
      SystemKind::kSaw,
  };
  return kSystems;
}

constexpr std::size_t kBatchSizes[] = {1, 2, 4, 8, 16, 32, 64};
constexpr std::size_t kTotalOps = 2048;

struct Point {
  double mops = 0;
  double alloc_rpcs_per_op = 0;
  std::uint64_t server_requests = 0;
  std::uint64_t server_allocs = 0;
};

sim::Task<void> drive_batches(stores::KvClient& client,
                              const workload::Workload& wl,
                              std::size_t ops, std::size_t batch,
                              sim::Simulator& sim, SimTime* end,
                              bool* done) {
  const std::uint64_t keys = wl.config().key_count;
  for (std::size_t op = 0; op < ops; op += batch) {
    if (batch == 1) {
      // The baseline: today's synchronous single-op path.
      const std::uint64_t k = op % keys;
      co_await client.put(wl.key_at(k), wl.value_for(k, op / keys + 1));
      continue;
    }
    std::vector<stores::KvClient::PutOp> members;
    members.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      const std::uint64_t k = (op + i) % keys;
      members.push_back({wl.key_at(k), wl.value_for(k, op / keys + 1)});
    }
    const std::vector<Status> statuses =
        co_await client.put_batch(std::move(members));
    for (const Status& s : statuses) {
      EFAC_CHECK_MSG(s.is_ok(), "batch_bench: unexpected PUT failure");
    }
  }
  *end = sim.now();
  *done = true;
}

Point run_point(SystemKind kind, std::size_t value_len, std::size_t batch) {
  workload::RunOptions sizing;
  sizing.workload.mix = workload::Mix::kUpdateOnly;
  sizing.workload.key_count = 256;
  sizing.workload.key_len = 32;
  sizing.workload.value_len = value_len;
  sizing.workload.seed = 0xBA7C;
  sizing.clients = 1;
  sizing.ops_per_client = kTotalOps;

  sim::Simulator sim;
  stores::StoreConfig config = workload::sized_store_config(sizing);
  maybe_enable_trace(config);
  stores::Cluster cluster = stores::make_cluster(sim, kind, config);
  cluster.start();

  stores::ClientOptions options;
  options.size_hint = {sizing.workload.key_len, value_len};
  auto client = cluster.make_client(options);
  const workload::Workload wl{sizing.workload};

  const stores::StoreBase::Counters& server = cluster.store->server_stats();
  const std::uint64_t requests0 = server.requests;
  const std::uint64_t allocs0 = server.allocs;
  const SimTime start = sim.now();
  SimTime end = start;
  bool done = false;
  sim.spawn(drive_batches(*client, wl, kTotalOps, batch, sim, &end, &done));
  while (!done) sim.run_until(sim.now() + timeconst::kMillisecond);

  Point p;
  const double elapsed_us =
      static_cast<double>(end - start) / timeconst::kMicrosecond;
  p.mops = static_cast<double>(kTotalOps) / elapsed_us;
  p.server_requests = server.requests - requests0;
  p.server_allocs = server.allocs - allocs0;
  p.alloc_rpcs_per_op = static_cast<double>(p.server_requests) /
                        static_cast<double>(kTotalOps);

  const std::string prefix = "batch/" + std::string{stores::to_string(kind)} +
                             "/" + size_label(value_len) + "/B" +
                             std::to_string(batch) + "/";
  metrics::MetricsRegistry& sink = metrics_sink();
  sink.gauge(prefix + "mops").set(p.mops);
  sink.gauge(prefix + "alloc_rpcs_per_op").set(p.alloc_rpcs_per_op);
  sink.counter(prefix + "server.requests") += p.server_requests;
  sink.counter(prefix + "server.allocs") += p.server_allocs;
  sink.merge_from(client->metrics(), prefix);
  maybe_adopt_trace(*cluster.store, prefix);
  return p;
}

void batch_sweep(benchmark::State& state, SystemKind kind,
                 std::size_t value_len) {
  for (auto _ : state) {
    double total_secs = 0;
    double base_mops = 0;
    const std::string row{stores::to_string(kind)};
    for (const std::size_t batch : kBatchSizes) {
      const Point p = run_point(kind, value_len, batch);
      total_secs += static_cast<double>(kTotalOps) / (p.mops * 1e6);
      if (batch == 1) base_mops = p.mops;
      const std::string column = "B=" + std::to_string(batch);
      Summary::instance().add(
          "Batched PUT throughput (Mops/s) — " + size_label(value_len), row,
          column, p.mops);
      Summary::instance().add(
          "Server round trips per PUT — " + size_label(value_len), row,
          column, p.alloc_rpcs_per_op);
      state.counters[column] = p.mops;
      if (batch > 1 && base_mops > 0) {
        Summary::instance().add(
            "Speedup vs batch=1 — " + size_label(value_len), row, column,
            p.mops / base_mops);
      }
    }
    state.SetIterationTime(total_secs);
  }
}

const int registrar = [] {
  for (const SystemKind kind : batch_systems()) {
    for (const std::size_t size : {64u, 256u, 1024u, 4096u}) {
      std::string name = "batch/";
      name += stores::to_string(kind);
      name += "/";
      name += size_label(size);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [kind, size](benchmark::State& state) {
            batch_sweep(state, kind, size);
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

int main(int argc, char** argv) { return efac::bench::bench_main(argc, argv, "batch"); }
