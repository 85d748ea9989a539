#include "workload/runner.hpp"

#include <bit>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "checksum/crc32.hpp"
#include "stores/efactory.hpp"

namespace efac::workload {

namespace {

using stores::KvClient;

struct SharedRunState {
  Workload* workload = nullptr;
  RunResult* result = nullptr;
  std::size_t remaining_clients = 0;
  SimTime measure_start = 0;
  SimTime last_finish = 0;
};

/// One closed-loop measured client.
sim::Task<void> client_loop(sim::Simulator& sim, KvClient& client,
                            SharedRunState& shared, Rng rng,
                            std::size_t client_id, std::size_t ops) {
  Workload& workload = *shared.workload;
  RunResult& result = *shared.result;
  for (std::size_t i = 0; i < ops; ++i) {
    const Workload::Op op = workload.next(rng);
    const SimTime start = sim.now();
    if (op.is_put) {
      const std::uint64_t version = client_id * 1'000'000'000ull + i;
      Bytes key = workload.key_at(op.key_index);
      Bytes value = workload.value_for(op.key_index, version);
      const Status status =
          co_await client.put(std::move(key), std::move(value));
      if (!status.is_ok()) ++result.put_failures;
      const SimDuration lat = sim.now() - start;
      result.put_latency.record(lat);
      result.op_latency.record(lat);
      ++result.puts;
    } else {
      Bytes key = workload.key_at(op.key_index);
      const Expected<Bytes> value = co_await client.get(std::move(key));
      if (!value) ++result.get_failures;
      const SimDuration lat = sim.now() - start;
      result.get_latency.record(lat);
      result.op_latency.record(lat);
      ++result.gets;
    }
    ++result.ops;
  }
  shared.last_finish = std::max(shared.last_finish, sim.now());
  --shared.remaining_clients;
}

/// Loader coroutine: inserts an index-partitioned slice of the key space.
sim::Task<void> loader_loop(KvClient& client, Workload& workload,
                            std::uint64_t begin, std::uint64_t end,
                            std::size_t* remaining) {
  for (std::uint64_t k = begin; k < end; ++k) {
    Bytes key = workload.key_at(k);
    Bytes value = workload.value_for(k, /*version=*/0);
    const Status status = co_await client.put(std::move(key),
                                              std::move(value));
    EFAC_CHECK_MSG(status.is_ok(), "load-phase PUT failed: "
                                       << status.to_string());
  }
  --*remaining;
}

/// Advance the simulation until `done()` holds (bounded slices: actors like
/// eFactory's background thread never drain the event queue on their own).
template <typename Pred>
void run_sim_until(sim::Simulator& sim, Pred done) {
  while (!done()) {
    sim.run_until(sim.now() + timeconst::kMillisecond);
  }
}

/// Type-erased view over Cluster / ShardedCluster: the harness only needs
/// a client factory, a start hook and the list of stores.
struct ClusterView {
  std::function<std::unique_ptr<KvClient>(const stores::ClientOptions&)>
      make_client;
  std::function<void()> start;
  std::vector<stores::StoreBase*> stores;
};

RunResult run_workload_impl(sim::Simulator& sim, const ClusterView& cluster,
                            const RunOptions& options) {
  // Snapshot the engine counters up front so the exported metrics are
  // per-run deltas: the CRC counters are process-global, and a repeated
  // seeded run must export byte-identical numbers (determinism test).
  const std::uint64_t fast0 = sim.fast_path_dispatches();
  const std::uint64_t heap0 = sim.heap_fallback_dispatches();
  const checksum::CrcCounters crc0 = checksum::crc_counters();

  Workload workload{options.workload};
  cluster.start();
  // Loaders and measured clients share one template; only the measured
  // clients' registries reach the result.
  stores::ClientOptions client_options = options.client;
  client_options.size_hint = {options.workload.key_len,
                              options.workload.value_len};

  // ---- phase 1: load --------------------------------------------------
  {
    const std::size_t loaders = std::min<std::size_t>(8, options.clients);
    std::vector<std::unique_ptr<KvClient>> loader_clients;
    std::size_t remaining = loaders;
    const std::uint64_t keys = options.workload.key_count;
    for (std::size_t l = 0; l < loaders; ++l) {
      loader_clients.push_back(cluster.make_client(client_options));
      const std::uint64_t begin = keys * l / loaders;
      const std::uint64_t end = keys * (l + 1) / loaders;
      sim.spawn(loader_loop(*loader_clients.back(), workload, begin, end,
                            &remaining));
    }
    run_sim_until(sim, [&] { return remaining == 0; });
  }

  // ---- phase 2: settle -------------------------------------------------
  for (stores::StoreBase* store : cluster.stores) {
    if (auto* efactory = dynamic_cast<stores::EFactoryStore*>(store)) {
      // Wait for the background verifier to drain (bounded).
      for (int i = 0; i < 10'000 && efactory->verify_queue_depth() > 0;
           ++i) {
        sim.run_until(sim.now() + 50 * timeconst::kMicrosecond);
      }
    }
  }
  sim.run_until(sim.now() + options.extra_settle_ns);

  // ---- phase 3: measure -------------------------------------------------
  RunResult result;
  SharedRunState shared;
  shared.workload = &workload;
  shared.result = &result;
  shared.remaining_clients = options.clients;
  shared.measure_start = sim.now();
  shared.last_finish = sim.now();

  Rng seeder{options.workload.seed ^ 0xC11E27};
  std::vector<std::unique_ptr<KvClient>> clients;
  clients.reserve(options.clients);
  for (std::size_t c = 0; c < options.clients; ++c) {
    clients.push_back(cluster.make_client(client_options));
    sim.spawn(client_loop(sim, *clients.back(), shared, seeder.fork(), c,
                          options.ops_per_client));
  }
  run_sim_until(sim, [&] { return shared.remaining_clients == 0; });

  result.span_ns = shared.last_finish - shared.measure_start;
  if (result.span_ns > 0) {
    result.mops = static_cast<double>(result.ops) * 1000.0 /
                  static_cast<double>(result.span_ns);
  }
  for (const auto& client : clients) {
    // Measured clients pool their counters and span histograms; the
    // per-client registries use identical names, so merging aggregates.
    // (Routed sharded clients contribute every shard client's registry.)
    client->merge_metrics_into(result.metrics, {});
  }
  for (stores::StoreBase* store : cluster.stores) {
    result.metrics.merge_from(store->metrics());
  }
  if (cluster.stores.size() > 1) {
    // Per-shard copies beside the aggregate, so sweeps can see skew.
    for (std::size_t s = 0; s < cluster.stores.size(); ++s) {
      result.metrics.merge_from(cluster.stores[s]->metrics(),
                                "shard" + std::to_string(s) + "/");
    }
  }

  const checksum::CrcCounters crc1 = checksum::crc_counters();
  result.metrics.counter("sim.events.fast_path") +=
      sim.fast_path_dispatches() - fast0;
  result.metrics.counter("sim.events.heap_fallback") +=
      sim.heap_fallback_dispatches() - heap0;
  result.metrics.counter("crc.hw_bytes") += crc1.hw_bytes - crc0.hw_bytes;
  result.metrics.counter("crc.sw_bytes") += crc1.sw_bytes - crc0.sw_bytes;
  return result;
}

}  // namespace

RunResult run_workload(sim::Simulator& sim, stores::Cluster& cluster,
                       const RunOptions& options) {
  ClusterView view;
  view.make_client = [&cluster](const stores::ClientOptions& client_options) {
    return cluster.make_client(client_options);
  };
  view.start = [&cluster] { cluster.start(); };
  view.stores = {cluster.store.get()};
  return run_workload_impl(sim, view, options);
}

RunResult run_workload(sim::Simulator& sim, stores::ShardedCluster& cluster,
                       const RunOptions& options) {
  ClusterView view;
  view.make_client = [&cluster](const stores::ClientOptions& client_options) {
    return cluster.make_client(client_options);
  };
  view.start = [&cluster] { cluster.start(); };
  view.stores.reserve(cluster.num_shards());
  for (std::size_t s = 0; s < cluster.num_shards(); ++s) {
    view.stores.push_back(&cluster.store(s));
  }
  return run_workload_impl(sim, view, options);
}

stores::StoreConfig sized_store_config(const RunOptions& options,
                                       bool for_cleaning) {
  const WorkloadConfig& w = options.workload;
  stores::StoreConfig config;
  config.seed = w.seed;

  const std::size_t object_bytes =
      kv::ObjectLayout::total_size(w.key_len, w.value_len);
  const double put_ops =
      static_cast<double>(options.clients * options.ops_per_client) *
      put_fraction(w.mix);
  const auto total_objects =
      static_cast<std::size_t>(static_cast<double>(w.key_count) + put_ops);
  const std::size_t needed = total_objects * object_bytes;

  if (for_cleaning) {
    // Size the pool so the run crosses the cleaning threshold repeatedly.
    // It must still hold the full key set (heads survive cleaning) plus
    // slack for writes arriving while a round runs.
    const std::size_t live_set = w.key_count * object_bytes;
    config.pool_bytes = std::max<std::size_t>(live_set * 2 + 64 * 1024,
                                              needed / 3);
  } else {
    // Generous headroom: the fill fraction must stay below the cleaning
    // threshold for the whole run, or cleaning noise pollutes the point.
    config.pool_bytes = std::max<std::size_t>(
        8 * sizeconst::kMiB, needed * 2 + sizeconst::kMiB);
  }

  std::size_t buckets = std::bit_ceil(w.key_count * 4 + 16);
  buckets = std::clamp<std::size_t>(buckets, 1u << 10, 1u << 20);
  config.hash_buckets = buckets;
  return config;
}

}  // namespace efac::workload
