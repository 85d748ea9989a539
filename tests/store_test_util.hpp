// Shared helpers for store-level tests: a self-contained cluster plus
// synchronous wrappers that drive the simulator until an async op resolves.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string_view>

#include "metrics/metrics.hpp"
#include "stores/factory.hpp"
#include "workload/ycsb.hpp"

namespace efac::testutil {

/// A counter's value in `registry` (e.g. a run's merged metrics); a name
/// that was never registered fails the calling test and reads as 0.
inline std::uint64_t counter(const metrics::MetricsRegistry& registry,
                             std::string_view name) {
  const metrics::Counter* c = registry.find_counter(name);
  EXPECT_NE(c, nullptr) << name;
  return c == nullptr ? 0 : c->value();
}

inline stores::StoreConfig small_config() {
  stores::StoreConfig config;
  config.pool_bytes = 4 * sizeconst::kMiB;
  config.hash_buckets = 1u << 12;
  return config;
}

/// ClientOptions with just the workload's object geometry filled in.
inline stores::ClientOptions hinted(std::size_t klen, std::size_t vlen) {
  stores::ClientOptions options;
  options.size_hint = {klen, vlen};
  return options;
}

/// A started single-system cluster with one default client.
struct TestCluster {
  sim::Simulator sim;
  stores::Cluster cluster;
  std::unique_ptr<stores::KvClient> client;

  explicit TestCluster(stores::SystemKind kind,
                       stores::StoreConfig config = small_config(),
                       stores::ClientOptions client_options = {})
      : cluster(stores::make_cluster(sim, kind, config)) {
    cluster.start();
    client = cluster.make_client(client_options);
  }

  /// Run the simulation in bounded slices until `done` holds. Background
  /// actors keep the event queue non-empty forever, so a plain run() would
  /// not return.
  template <typename Pred>
  void run_until_done(Pred done, SimDuration slice = timeconst::kMillisecond,
                      int max_slices = 100'000) {
    for (int i = 0; i < max_slices; ++i) {
      if (done()) return;
      sim.run_until(sim.now() + slice);
    }
    EFAC_CHECK_MSG(done(), "simulation did not converge");
  }

  /// Synchronous PUT through a specific client.
  Status put_sync(stores::KvClient& c, Bytes key, Bytes value) {
    std::optional<Status> result;
    sim.spawn([](stores::KvClient& cl, Bytes k, Bytes v,
                 std::optional<Status>* out) -> sim::Task<void> {
      *out = co_await cl.put(std::move(k), std::move(v));
    }(c, std::move(key), std::move(value), &result));
    run_until_done([&] { return result.has_value(); });
    return *result;
  }

  Status put_sync(Bytes key, Bytes value) {
    return put_sync(*client, std::move(key), std::move(value));
  }

  /// Synchronous GET through a specific client.
  Expected<Bytes> get_sync(stores::KvClient& c, Bytes key) {
    std::optional<Expected<Bytes>> result;
    sim.spawn([](stores::KvClient& cl, Bytes k,
                 std::optional<Expected<Bytes>>* out) -> sim::Task<void> {
      out->emplace(co_await cl.get(std::move(k)));
    }(c, std::move(key), &result));
    run_until_done([&] { return result.has_value(); });
    return *result;
  }

  Expected<Bytes> get_sync(Bytes key) {
    return get_sync(*client, std::move(key));
  }

  /// Let background work proceed for `d` virtual ns.
  void settle(SimDuration d = 500 * timeconst::kMicrosecond) {
    sim.run_until(sim.now() + d);
  }
};

inline Bytes make_value(std::size_t len, std::uint8_t tag) {
  Bytes v(len);
  for (std::size_t i = 0; i < len; ++i) {
    v[i] = static_cast<std::uint8_t>(tag + i * 13);
  }
  return v;
}

}  // namespace efac::testutil
