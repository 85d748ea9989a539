// Quickstart: bring up a simulated eFactory cluster, PUT and GET a few
// objects, and peek at the protocol counters.
//
//   $ ./examples/quickstart
//
// Everything runs in virtual time inside a single process: the Simulator
// drives the cluster (server workers + background verification thread) and
// the client coroutines.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "stores/efactory.hpp"
#include "workload/runner.hpp"

using namespace efac;  // NOLINT: example brevity

int main() {
  // 1. A simulator owns virtual time; the store owns the simulated NVM
  //    arena, RNIC, and server actors.
  sim::Simulator sim;
  stores::StoreConfig config;
  config.pool_bytes = 8 * sizeconst::kMiB;
  stores::EFactoryStore store{sim, config};
  store.start();

  // 2. Clients connect over the simulated fabric.
  stores::ClientOptions options;
  options.size_hint = {/*klen=*/16, /*vlen=*/64};  // geometry for 1-sided GETs
  auto client = store.make_client(options);

  // 3. Issue operations from a coroutine; co_await suspends in virtual
  //    time exactly as the protocol dictates (alloc RPC + one-sided WRITE
  //    for PUT; hybrid read for GET).
  bool done = false;
  sim.spawn([](sim::Simulator& s, stores::KvClient& c,
               bool* flag) -> sim::Task<void> {
    const Bytes key = to_bytes("greeting-key-16B");
    // A 64-byte value: the greeting, padded with dots.
    const Bytes greeting =
        to_bytes("hello, remote non-volatile memory land...");
    Bytes value(64, '.');
    std::copy(greeting.begin(), greeting.end(), value.begin());

    const SimTime put_start = s.now();
    const Status put = co_await c.put(key, value);
    std::printf("PUT  -> %-8s (%.2f us)\n", put.to_string().c_str(),
                static_cast<double>(s.now() - put_start) / 1000.0);

    // Give the background thread a moment to verify + persist + flag.
    co_await sim::delay(s, 50 * timeconst::kMicrosecond);

    const SimTime get_start = s.now();
    const Expected<Bytes> got = co_await c.get(key);
    std::printf("GET  -> %-8s (%.2f us)\n",
                got ? "OK" : got.status().to_string().c_str(),
                static_cast<double>(s.now() - get_start) / 1000.0);
    if (got) {
      std::printf("value: \"%s\"\n", to_string(*got).c_str());
    }
    *flag = true;
  }(sim, *client, &done));

  while (!done) sim.run_until(sim.now() + timeconst::kMillisecond);

  // 4. Observability: what did the protocol actually do?
  const stores::KvClient::Counters& cs = client->stats();
  const stores::StoreBase::Counters& ss = store.server_stats();
  std::printf("\nclient: %llu puts, %llu gets (%llu pure-RDMA, %llu RPC)\n",
              static_cast<unsigned long long>(cs.puts),
              static_cast<unsigned long long>(cs.gets),
              static_cast<unsigned long long>(cs.gets_pure_rdma),
              static_cast<unsigned long long>(cs.gets_rpc_path));
  std::printf("server: %llu requests, %llu background-verified objects\n",
              static_cast<unsigned long long>(ss.requests),
              static_cast<unsigned long long>(ss.bg_verified));
  // The same counters — plus per-phase span histograms in virtual ns —
  // live on the client's MetricsRegistry (see docs/OBSERVABILITY.md).
  if (const Histogram* span =
          client->metrics().find_histogram("span.put.total")) {
    std::printf("span.put.total: %llu sample(s), mean %.2f us\n",
                static_cast<unsigned long long>(span->count()),
                span->mean() / 1000.0);
  }
  std::printf("virtual time elapsed: %.2f ms\n",
              static_cast<double>(sim.now()) / 1e6);
  return 0;
}
