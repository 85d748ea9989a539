// Repository benchmark: runs ONE workload in this process and writes one
// JSON result. benchmark/run.py builds it, runs the workloads one after
// another, prints the metrics and applies the bounds; README.md describes
// the workloads, the metrics and why each exists.
//
//   efac_bench --workload=<name> --seed=<n> [--seconds=<s>] [--traced]
//              [--smoke] [--out=<result.json>] [--profile-out=<file>]
//
// A run goes build -> load -> settle -> measure -> sweep -> crash ->
// restart -> sweep. Every phase is timed on the host clock; every measured
// op's VIRTUAL latency goes into a raw vector, so percentiles are exact
// order statistics rather than histogram buckets. The work done is fixed
// by (--seconds, --seed) alone, which keeps every vt_* metric and the
// dispatch hash bit-identical between two runs of the same commit.
//
// Only a narrow public surface of the library is used: make_cluster,
// Cluster::make_client, the KvClient operations, StoreBase::metrics()
// (counters read by name, absent ones reported as absent), crash(),
// restart(), EFactoryStore::verify_queue_depth()/working_pool(), the
// Simulator and workload::Workload.
#include <dlfcn.h>
#include <signal.h>
#include <sys/resource.h>
#include <time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checksum/crc32.hpp"
#include "common/rng.hpp"
#include "kv/object.hpp"
#include "sim/simulator.hpp"
#include "stores/efactory.hpp"
#include "stores/factory.hpp"
#include "workload/ycsb.hpp"

namespace efac_bench {

using efac::Bytes;
using efac::Expected;
using efac::Rng;
using efac::SimDuration;
using efac::SimTime;
using efac::Status;
using efac::sim::Simulator;
using efac::sim::Task;
using efac::stores::KvClient;
using efac::workload::Mix;
namespace timeconst = efac::timeconst;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
}

double host_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ================================================================ workloads

enum class Loop { kClosed, kOpen };

/// One benchmark workload. Work per run is `seconds * nominal_kops * 1000`
/// ops: the nominal host rate only converts the requested duration into a
/// FIXED op count, so the virtual schedule never depends on host speed.
/// --smoke runs kSmokeSeconds of work on 1/16 of the keys.
struct Spec {
  const char* name;
  Loop loop;
  Mix mix;
  bool adaptive;           ///< adaptive hybrid read (else plain hybrid)
  std::size_t value_len;
  std::uint64_t keys;
  std::size_t space;       ///< pool bytes = space * live set
  std::size_t clients;
  std::size_t batch;       ///< put_batch members per submission (1 = sync)
  double nominal_kops;     ///< measured-op budget per requested second
};

constexpr double kSmokeSeconds = 0.5;
constexpr std::uint64_t kSmokeKeyDivisor = 16;

// Open-loop constants for ycsb-b-open-1k (README "Open loop").
constexpr SimDuration kSloP99Ns = 20 * timeconst::kMicrosecond;
constexpr double kBacklogFloor = 0.99;  ///< late-half completions/arrivals
constexpr std::size_t kOpenWindow = 16;
constexpr double kBisectPrecision = 0.01;
/// First bisection guess, Mops offered: the calibrated knee.
constexpr double kOpenGuessMops = 8.1;
/// Fixed rates: 40 %, 70 % and 90 % of the first calibrated vt_slo_mops
/// (8.09 Mops offered at seed 1, 10 s), frozen so later changes are
/// judged at the same offered load.
constexpr double kOpenLowMops = 3.24;
constexpr double kOpenMidMops = 5.66;
constexpr double kOpenHighMops = 7.28;

const std::vector<Spec>& specs() {
  static const std::vector<Spec> kSpecs{
      {"ycsb-a-hot-4k", Loop::kClosed, Mix::kWriteIntensive, true, 4096,
       1024, 16, 8, 1, 75.0},
      {"ycsb-b-open-1k", Loop::kOpen, Mix::kReadIntensive, true, 1024,
       32768, 3, 16, 1, 80.0},
      {"put-batch-256", Loop::kClosed, Mix::kUpdateOnly, false, 256, 16384,
       16, 4, 16, 300.0},
      {"ycsb-c-plain-4k", Loop::kClosed, Mix::kReadOnly, false, 4096, 12288,
       2, 8, 1, 450.0},
  };
  return kSpecs;
}

// =================================================================== oracle

/// Correctness oracle. Every value the benchmark writes carries its write
/// id and key index in the first 16 bytes, then a fill word derived from
/// both repeated to the end, so a returned value proves which write
/// produced it, and a value torn between two writes (two fill words)
/// cannot pass. Per write the oracle keeps the key and the ack instant;
/// per key, the latest issue instant among acked writes.
class Oracle {
 public:
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
  static constexpr std::size_t kMaxReported = 20;

  /// `value_len` must be a multiple of 8, at least 32.
  Oracle(std::uint64_t keys, std::size_t value_len)
      : value_len_(value_len), acked_issue_(keys, 0) {}

  struct Write {
    std::uint64_t id;
    Bytes value;
  };

  Write issue(std::uint64_t key) {
    const std::uint64_t id = key_of_.size();
    key_of_.push_back(static_cast<std::uint32_t>(key));
    ack_.push_back(kNever);
    Bytes value(value_len_);
    std::memcpy(value.data(), &id, 8);
    std::memcpy(value.data() + 8, &key, 8);
    const std::uint64_t fill = fill_word(id, key);
    for (std::size_t off = 16; off < value_len_; off += 8) {
      std::memcpy(value.data() + off, &fill, 8);
    }
    return Write{id, std::move(value)};
  }

  /// A write issued at `issued` completed at `now`. Failed writes stay
  /// unacked: they may or may not become visible, and never raise a floor.
  void complete(std::uint64_t id, SimTime issued, SimTime now, bool ok) {
    if (!ok) return;
    ack_[id] = now;
    std::uint64_t& floor = acked_issue_[key_of_[id]];
    floor = std::max(floor, issued);
  }

  /// Freshness floor for a GET of `key` starting now: the latest issue
  /// instant of a write acked before the GET began.
  [[nodiscard]] SimTime floor(std::uint64_t key) const {
    return acked_issue_[key];
  }

  /// Check a successful GET of `key` that began with freshness floor
  /// `floor`. Returns the write id, or nullopt after recording a violation.
  std::optional<std::uint64_t> check(std::uint64_t key, const Bytes& value,
                                     SimTime floor) {
    if (value.size() != value_len_) {
      return violation(key, "value of " + std::to_string(value.size()) +
                                " bytes, expected " +
                                std::to_string(value_len_));
    }
    std::uint64_t id = 0;
    std::uint64_t tagged_key = 0;
    std::memcpy(&id, value.data(), 8);
    std::memcpy(&tagged_key, value.data() + 8, 8);
    if (tagged_key != key) {
      return violation(key, "returned a value of key " +
                                std::to_string(tagged_key));
    }
    if (id >= key_of_.size() || key_of_[id] != key) {
      return violation(key, "returned write " + std::to_string(id) +
                                ", never written to this key");
    }
    // Every body word equals the first one (an overlapping compare), and
    // the first one is this write's fill word.
    const std::uint64_t fill = fill_word(id, key);
    std::uint64_t first = 0;
    std::memcpy(&first, value.data() + 16, 8);
    if (first != fill ||
        std::memcmp(value.data() + 16, value.data() + 24,
                    value_len_ - 24) != 0) {
      return violation(key, "torn or corrupt bytes of write " +
                                std::to_string(id));
    }
    // freshness_test's rule: a write acked before this GET began makes
    // write `id` stale if `id` was acked before that write was issued.
    if (ack_[id] < floor) {
      return violation(key, "stale: write " + std::to_string(id) +
                                " acked at " + std::to_string(ack_[id]) +
                                " ns, before an acked overwrite issued at " +
                                std::to_string(floor) + " ns");
    }
    return id;
  }

  std::optional<std::uint64_t> violation(std::uint64_t key,
                                         const std::string& what) {
    ++violations_;
    if (messages_.size() < kMaxReported) {
      messages_.push_back("key " + std::to_string(key) + ": " + what);
    }
    return std::nullopt;
  }

  [[nodiscard]] std::uint64_t violations() const { return violations_; }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  static std::uint64_t fill_word(std::uint64_t id, std::uint64_t key) {
    return efac::mix64(id * 0xD6E8FEB86659FD93ULL ^ (key << 40) ^ key);
  }

  std::size_t value_len_;
  std::vector<std::uint32_t> key_of_;
  std::vector<SimTime> ack_;
  std::vector<SimTime> acked_issue_;
  std::uint64_t violations_ = 0;
  std::vector<std::string> messages_;
};

// ============================================================ measurements

/// Percentile of raw virtual latencies (integer ns), from the samples
/// themselves rather than histogram buckets.
struct Tail {
  double value_us = 0;
  std::uint64_t samples = 0;
  std::uint64_t beyond = 0;  ///< samples ranked after the percentile
  bool reportable = false;
};

/// The nearest-rank order statistic v locates the percentile; the value is
/// then interpolated inside v's 1 ns rounding bin [v - 0.5, v + 0.5) by
/// where rank q*n falls among the samples tied at v (the grouped-data
/// quantile). Latencies are rounded to whole ns, and with ~10^5 samples
/// the plain median would sit on the same integer for every seed.
Tail percentile(std::vector<std::uint32_t> values, double q) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  const double target = q * static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(target));
  const std::size_t idx = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  const std::uint32_t v = values[idx];
  std::size_t below = 0;
  std::size_t tied = 0;
  for (const std::uint32_t x : values) {
    below += x < v ? 1 : 0;
    tied += x == v ? 1 : 0;
  }
  const double within =
      std::clamp((target - static_cast<double>(below)) /
                     static_cast<double>(tied),
                 0.0, 1.0);
  t.value_us = (static_cast<double>(v) - 0.5 + within) / 1000.0;
  t.beyond = values.size() - 1 - idx;
  // A median needs no tail; a tail needs ten samples beyond it.
  t.reportable = q <= 0.5 || t.beyond >= 10;
  return t;
}

/// Latencies and counts of one measured phase.
struct Phase {
  std::vector<std::uint32_t> get_lat;
  std::vector<std::uint32_t> put_lat;
  std::uint64_t ops = 0;      ///< attempted
  std::uint64_t ok_ops = 0;
  std::uint64_t errors = 0;   ///< non-OK status
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t busy_ns = 0;  ///< sum of per-submission latencies
  std::size_t active = 0;     ///< actors still running
  SimTime start = 0;
  SimTime last_finish = 0;
  std::uint64_t op_hash = kFnvOffset;  ///< completion order and instants

  void record(bool is_put, bool ok, SimDuration lat, SimTime now,
              std::uint64_t tag) {
    ++ops;
    (is_put ? puts : gets) += 1;
    if (ok) {
      ++ok_ops;
      (is_put ? put_lat : get_lat).push_back(static_cast<std::uint32_t>(lat));
    } else {
      ++errors;
    }
    last_finish = std::max(last_finish, now);
    fnv_fold(op_hash, now);
    fnv_fold(op_hash, tag * 2 + (ok ? 1 : 0));
  }
};

// ====================================================================== rig

/// One fresh cluster, loaded and settled. Members are destroyed in reverse
/// order: clients, then the cluster, then the simulator.
struct Rig {
  std::unique_ptr<Simulator> sim;
  efac::stores::Cluster cluster;
  efac::stores::EFactoryStore* store = nullptr;
  std::unique_ptr<efac::workload::Workload> workload;
  std::unique_ptr<Oracle> oracle;
  std::vector<std::unique_ptr<KvClient>> clients;
  efac::stores::ClientOptions client_options;
  std::uint64_t keys = 0;
  std::vector<Bytes> key_bytes;  ///< Workload::key_at, computed once
  Phase load;
  double build_s = 0;
  double load_s = 0;
  double settle_s = 0;

  [[nodiscard]] Bytes key(std::uint64_t k) const { return key_bytes[k]; }
};

efac::stores::StoreConfig store_config(const Spec& spec, std::uint64_t keys,
                                       std::uint64_t seed, bool traced) {
  efac::stores::StoreConfig config;
  config.seed = efac::mix64(seed ^ 0xEFAC);
  const std::size_t object =
      efac::kv::ObjectLayout::total_size(32, spec.value_len);
  config.pool_bytes = spec.space * keys * object;
  config.hash_buckets = std::clamp<std::size_t>(
      std::bit_ceil(keys * 4 + 16), std::size_t{1} << 10,
      std::size_t{1} << 20);
  config.trace.enabled = traced;
  config.telemetry.enabled = traced;
  return config;
}

Task<void> loader(Rig& rig, KvClient& client, std::uint64_t begin,
                  std::uint64_t end) {
  Simulator& sim = *rig.sim;
  for (std::uint64_t k = begin; k < end; ++k) {
    Oracle::Write w = rig.oracle->issue(k);
    const SimTime start = sim.now();
    const Status s =
        co_await client.put(rig.key(k), std::move(w.value));
    rig.oracle->complete(w.id, start, sim.now(), s.is_ok());
    rig.load.record(true, s.is_ok(), sim.now() - start, sim.now(), w.id);
  }
  --rig.load.active;
}

/// Advance the simulation until `done()`, in 1 ms virtual slices (the
/// background verifier never lets the event queue drain).
template <typename Pred>
void run_until(Simulator& sim, Pred done) {
  const double deadline = host_now_s() + 150.0;
  while (!done()) {
    sim.run_until(sim.now() + timeconst::kMillisecond);
    if (host_now_s() > deadline) {
      throw std::runtime_error("simulation made no progress for 150 s");
    }
  }
}

std::unique_ptr<Rig> make_rig(const Spec& spec, std::uint64_t keys,
                              std::uint64_t seed, bool traced) {
  auto rig = std::make_unique<Rig>();
  rig->keys = keys;
  double t0 = host_now_s();
  rig->sim = std::make_unique<Simulator>();
  rig->cluster = efac::stores::make_cluster(
      *rig->sim, efac::stores::SystemKind::kEFactory,
      store_config(spec, keys, seed, traced));
  rig->store =
      dynamic_cast<efac::stores::EFactoryStore*>(rig->cluster.store.get());
  rig->cluster.start();
  efac::workload::WorkloadConfig wc;
  wc.mix = spec.mix;
  wc.key_count = keys;
  wc.key_len = 32;
  wc.value_len = spec.value_len;
  wc.seed = seed;
  rig->workload = std::make_unique<efac::workload::Workload>(wc);
  for (std::uint64_t k = 0; k < keys; ++k) {
    rig->key_bytes.push_back(rig->workload->key_at(k));
  }
  rig->oracle = std::make_unique<Oracle>(keys, spec.value_len);
  rig->client_options.size_hint = {32, spec.value_len};
  rig->client_options.adaptive.enabled = spec.adaptive;
  rig->client_options.max_inflight = kOpenWindow;
  rig->build_s = host_now_s() - t0;

  t0 = host_now_s();
  constexpr std::size_t kLoaders = 8;
  rig->load.active = kLoaders;
  for (std::size_t l = 0; l < kLoaders; ++l) {
    rig->clients.push_back(rig->cluster.make_client(rig->client_options));
    rig->sim->spawn(loader(*rig, *rig->clients.back(), keys * l / kLoaders,
                           keys * (l + 1) / kLoaders));
  }
  run_until(*rig->sim, [&] { return rig->load.active == 0; });
  rig->load_s = host_now_s() - t0;

  t0 = host_now_s();
  for (int i = 0; i < 100'000 && rig->store->verify_queue_depth() > 0; ++i) {
    rig->sim->run_until(rig->sim->now() + 50 * timeconst::kMicrosecond);
  }
  rig->sim->run_until(rig->sim->now() + 200 * timeconst::kMicrosecond);
  rig->settle_s = host_now_s() - t0;
  return rig;
}

// ================================================================ clients

Task<void> get_op(Rig& rig, KvClient& client, Phase& phase,
                  std::uint64_t key, SimTime due, bool async) {
  Simulator& sim = *rig.sim;
  const SimTime floor = rig.oracle->floor(key);
  Expected<Bytes> got = Status{efac::StatusCode::kInternal};
  if (async) {
    const KvClient::OpHandle h = client.get_async(rig.key(key));
    got = co_await client.await_value(h);
  } else {
    got = co_await client.get(rig.key(key));
  }
  bool ok = got.has_value();
  if (ok && !rig.oracle->check(key, *got, floor)) ok = false;
  phase.busy_ns += sim.now() - due;
  phase.record(false, ok, sim.now() - due, sim.now(), key);
}

Task<void> put_op(Rig& rig, KvClient& client, Phase& phase,
                  std::uint64_t key, SimTime due, bool async) {
  Simulator& sim = *rig.sim;
  Oracle::Write w = rig.oracle->issue(key);
  Status s;
  if (async) {
    const KvClient::OpHandle h =
        client.put_async(rig.key(key), std::move(w.value));
    s = co_await client.await_status(h);
  } else {
    s = co_await client.put(rig.key(key), std::move(w.value));
  }
  rig.oracle->complete(w.id, due, sim.now(), s.is_ok());
  phase.busy_ns += sim.now() - due;
  phase.record(true, s.is_ok(), sim.now() - due, sim.now(), w.id);
}

/// put_batch of distinct keys (a batching client coalesces writes to one
/// key, so the oracle could not tell which member's value should win).
Task<void> put_batch_op(Rig& rig, KvClient& client, Phase& phase,
                        std::vector<std::uint64_t> keys) {
  Simulator& sim = *rig.sim;
  std::vector<KvClient::PutOp> ops;
  std::vector<std::uint64_t> ids;
  for (const std::uint64_t key : keys) {
    Oracle::Write w = rig.oracle->issue(key);
    ids.push_back(w.id);
    ops.push_back(KvClient::PutOp{rig.key(key),
                                  std::move(w.value)});
  }
  const SimTime start = sim.now();
  const std::vector<Status> statuses =
      co_await client.put_batch(std::move(ops));
  phase.busy_ns += sim.now() - start;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    rig.oracle->complete(ids[i], start, sim.now(), statuses[i].is_ok());
    phase.record(true, statuses[i].is_ok(), sim.now() - start, sim.now(),
                 ids[i]);
  }
}

/// One closed-loop client: the next op is issued when the previous ends.
Task<void> closed_client(Rig& rig, const Spec& spec, KvClient& client,
                         Phase& phase, Rng rng, std::uint64_t ops) {
  Simulator& sim = *rig.sim;
  const efac::workload::Workload& wl = *rig.workload;
  for (std::uint64_t done = 0; done < ops;) {
    if (spec.batch > 1) {
      std::vector<std::uint64_t> keys;
      while (keys.size() < spec.batch) {
        const std::uint64_t k = wl.next(rng).key_index;
        if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
          keys.push_back(k);
        }
      }
      co_await put_batch_op(rig, client, phase, std::move(keys));
      done += spec.batch;
      continue;
    }
    const efac::workload::Workload::Op op = wl.next(rng);
    if (op.is_put) {
      co_await put_op(rig, client, phase, op.key_index, sim.now(), false);
    } else {
      co_await get_op(rig, client, phase, op.key_index, sim.now(), false);
    }
    ++done;
  }
  --phase.active;
}

/// Open-loop generator: Poisson arrivals at `rate_mops`, dealt round-robin
/// to the clients' async windows. Each op is timed from its due instant,
/// so waiting in a full window counts against it. The generator sleeps to
/// each due instant exactly, so it is never late in virtual time.
Task<void> open_generator(Rig& rig, const std::vector<KvClient*>* clients,
                          Phase& phase, Rng rng, double rate_mops,
                          std::uint64_t arrivals,
                          std::vector<SimTime>* due_times,
                          std::vector<SimTime>* completions) {
  Simulator& sim = *rig.sim;
  const double mean_gap_ns = 1000.0 / rate_mops;
  double t = static_cast<double>(sim.now());
  for (std::uint64_t i = 0; i < arrivals; ++i) {
    t += -std::log1p(-rng.next_double()) * mean_gap_ns;
    const auto due = static_cast<SimTime>(t);
    if (due > sim.now()) co_await efac::sim::delay(sim, due - sim.now());
    const efac::workload::Workload::Op op = rig.workload->next(rng);
    KvClient& client = *(*clients)[i % clients->size()];
    ++phase.active;
    sim.spawn([](Rig& r, KvClient& c, Phase& p, efac::workload::Workload::Op o,
                 SimTime d, std::vector<SimTime>* done) -> Task<void> {
      if (o.is_put) {
        co_await put_op(r, c, p, o.key_index, d, true);
      } else {
        co_await get_op(r, c, p, o.key_index, d, true);
      }
      done->push_back(r.sim->now());
      --p.active;
    }(rig, client, phase, op, sim.now(), completions));
    due_times->push_back(sim.now());
  }
  --phase.active;
}

// ========================================================= measured phases

/// In-process SIGPROF sampler. The handler only appends the interrupted
/// program counter to a preallocated buffer; the buffer is resolved
/// (executable offset or shared-object symbol) and written out after
/// sampling stops. The timer runs on CLOCK_MONOTONIC: CPU-clock timers
/// expire only on scheduler ticks (250 per second on a HZ=250 kernel),
/// far too few samples for a 10 s run, while this single-threaded,
/// CPU-bound process spends its wall time on the CPU anyway.
class Profiler {
 public:
  explicit Profiler(std::size_t capacity) {
    pcs().assign(capacity, 0);
    count().store(0);
    struct sigaction sa {};
    sa.sa_sigaction = &Profiler::on_signal;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, &old_);
    struct sigevent sev {};
    sev.sigev_notify = SIGEV_SIGNAL;
    sev.sigev_signo = SIGPROF;
    armed_ = timer_create(CLOCK_MONOTONIC, &sev, &timer_) == 0;
  }
  ~Profiler() {
    stop();
    if (armed_) timer_delete(timer_);
    sigaction(SIGPROF, &old_, nullptr);
  }
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  void start() { set_period(kPeriodNs); }
  void stop() { set_period(0); }
  [[nodiscard]] std::size_t samples() const {
    return std::min(count().load(), pcs().size());
  }

  /// "exe <offset-hex> <count>" for samples in this executable (offsets
  /// from its load base, as nm prints them for a PIE), "dso <file>
  /// <symbol> <count>" for shared objects.
  void write(const std::string& path) const {
    Dl_info self{};
    dladdr(reinterpret_cast<void*>(&Profiler::on_signal), &self);
    const auto base = reinterpret_cast<std::uintptr_t>(self.dli_fbase);
    std::map<std::uintptr_t, std::uint64_t> exe;
    std::map<std::string, std::uint64_t> dso;
    for (std::size_t i = 0; i < samples(); ++i) {
      const std::uintptr_t pc = pcs()[i];
      Dl_info info{};
      if (dladdr(reinterpret_cast<void*>(pc), &info) == 0) {
        ++dso["? ?"];
      } else if (info.dli_fbase == self.dli_fbase) {
        ++exe[pc - base];
      } else {
        std::string file = info.dli_fname != nullptr ? info.dli_fname : "?";
        file = file.substr(file.find_last_of('/') + 1);
        ++dso[file + " " + (info.dli_sname != nullptr ? info.dli_sname : "?")];
      }
    }
    std::ofstream os(path);
    os << "# efac-bench profile: " << samples() << " samples, base 0x"
       << std::hex << base << std::dec << "\n";
    for (const auto& [off, n] : exe) {
      os << "exe " << std::hex << off << std::dec << ' ' << n << '\n';
    }
    for (const auto& [name, n] : dso) os << "dso " << name << ' ' << n << '\n';
  }

 private:
  static constexpr long kPeriodNs = 100'000;  // 10k samples per second

  static std::vector<std::uintptr_t>& pcs() {
    static std::vector<std::uintptr_t> buffer;
    return buffer;
  }
  static std::atomic<std::size_t>& count() {
    static std::atomic<std::size_t> n{0};
    return n;
  }
  static void on_signal(int, siginfo_t*, void* context) {
    const auto* uc = static_cast<const ucontext_t*>(context);
    std::uintptr_t pc = 0;
#if defined(__x86_64__)
    pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
    static_cast<void>(uc);
#endif
    const std::size_t i = count().fetch_add(1, std::memory_order_relaxed);
    if (i < pcs().size()) pcs()[i] = pc;
  }
  void set_period(long ns) {
    if (!armed_) return;
    itimerspec spec{};
    spec.it_interval.tv_nsec = ns;
    spec.it_value.tv_nsec = ns;
    timer_settime(timer_, 0, &spec, nullptr);
  }

  struct sigaction old_ {};
  timer_t timer_{};
  bool armed_ = false;
};

/// Host time of the measured phases. The simulation advances in 1 ms
/// virtual slices; consecutive slices are grouped into chunks of about
/// `chunk_ops` ops, and host_kops is the 90th percentile of the chunk
/// rates: the speed of the least disturbed tenth of the phase. Load from
/// other processes on a shared host only ever slows a chunk down, and it
/// comes in bursts of a few hundred ms, which a mean or a median absorbs.
/// One clock may span several phases (the open loop's probes).
class HostClock {
 public:
  void begin(std::uint64_t chunk_ops) {
    chunk_ops_ = std::max<std::uint64_t>(1, chunk_ops);
    mark_ops_ = 0;
    mark_s_ = host_now_s();
    begin_s_ = mark_s_;
  }
  void slice(std::uint64_t ops_now) {
    if (ops_now - mark_ops_ >= chunk_ops_) close(ops_now);
  }
  /// A trailing partial chunk counts only if it is at least half a chunk.
  void end(std::uint64_t ops_now) {
    if (2 * (ops_now - mark_ops_) >= chunk_ops_) close(ops_now);
    total_s_ += host_now_s() - begin_s_;
  }
  [[nodiscard]] double total_s() const { return total_s_; }
  [[nodiscard]] std::size_t chunks() const { return rates_.size(); }
  [[nodiscard]] double p90_kops() const {
    if (rates_.empty()) return 0.0;
    std::vector<double> r = rates_;
    std::sort(r.begin(), r.end());
    return r[(r.size() - 1) * 9 / 10];
  }

 private:
  void close(std::uint64_t ops_now) {
    const double now = host_now_s();
    if (now > mark_s_) {
      rates_.push_back(static_cast<double>(ops_now - mark_ops_) / 1000.0 /
                       (now - mark_s_));
    }
    mark_ops_ = ops_now;
    mark_s_ = now;
  }

  std::uint64_t chunk_ops_ = 1;
  std::uint64_t mark_ops_ = 0;
  double mark_s_ = 0;
  double begin_s_ = 0;
  double total_s_ = 0;
  std::vector<double> rates_;
};

/// Run a measured phase to completion, timed on `clock` (and sampled by
/// `prof` in a traced run).
void drive(Rig& rig, Phase& phase, HostClock& clock, std::uint64_t chunk_ops,
           Profiler* prof) {
  const double deadline = host_now_s() + 150.0;
  if (prof != nullptr) prof->start();
  clock.begin(chunk_ops);
  while (phase.active > 0) {
    rig.sim->run_until(rig.sim->now() + timeconst::kMillisecond);
    clock.slice(phase.ops);
    if (host_now_s() > deadline) {
      throw std::runtime_error("measured phase did not finish in 150 s");
    }
  }
  clock.end(phase.ops);
  if (prof != nullptr) prof->stop();
}

/// Quiescent sweep: GET every key once from 8 fresh clients. Returns the
/// write id observed per key (Oracle::kNever where the GET failed).
std::vector<std::uint64_t> sweep(Rig& rig, Phase& phase) {
  constexpr std::size_t kSweepers = 8;
  std::vector<std::uint64_t> seen(rig.keys, Oracle::kNever);
  phase.start = rig.sim->now();
  phase.active = kSweepers;
  for (std::size_t c = 0; c < kSweepers; ++c) {
    rig.clients.push_back(rig.cluster.make_client(rig.client_options));
    rig.sim->spawn([](Rig& r, KvClient& cl, Phase& p, std::size_t first,
                      std::size_t stride,
                      std::vector<std::uint64_t>* out) -> Task<void> {
      for (std::uint64_t k = first; k < r.keys; k += stride) {
        const SimTime start = r.sim->now();
        const SimTime floor = r.oracle->floor(k);
        const Expected<Bytes> got = co_await cl.get(r.key(k));
        std::optional<std::uint64_t> id;
        if (got.has_value()) id = r.oracle->check(k, *got, floor);
        if (id) (*out)[k] = *id;
        p.busy_ns += r.sim->now() - start;
        p.record(false, id.has_value(), r.sim->now() - start, r.sim->now(),
                 k);
      }
      --p.active;
    }(rig, *rig.clients.back(), phase, c, kSweepers, &seen));
  }
  run_until(*rig.sim, [&] { return phase.active == 0; });
  return seen;
}

// ================================================================= results

/// One metric of the result file. `value` empty = absent or refused.
struct Metric {
  std::optional<double> value;
  std::string unit;
  std::optional<std::uint64_t> samples;
  std::string note;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void write_metrics(std::ostream& os, const std::map<std::string, Metric>& m) {
  os << "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    os << (first ? "\n    " : ",\n    ") << json_string(name)
       << ": {\"value\": "
       << (metric.value ? json_number(*metric.value) : "null")
       << ", \"unit\": " << json_string(metric.unit);
    if (metric.samples) os << ", \"samples\": " << *metric.samples;
    if (!metric.note.empty()) os << ", \"note\": " << json_string(metric.note);
    os << "}";
    first = false;
  }
  os << "\n  }";
}

/// Fingerprint of the default virtual-time cost model: ServerCostModel,
/// nvm::CostModel, CrcCostModel, FabricConfig and the verifier/cleaner
/// timing fields of StoreConfig. compare refuses to compare results whose
/// fingerprints differ: retuning the model is not a gain.
std::uint64_t calibration_fingerprint() {
  const efac::stores::StoreConfig d{};
  std::uint64_t h = kFnvOffset;
  auto add = [&h](auto v) {
    static_assert(sizeof(v) <= 8);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof v);
    fnv_fold(h, bits);
  };
  add(d.cpu.recv_handling_ns);
  add(d.cpu.recv_handling_batched_ns);
  add(d.cpu.hash_probe_ns);
  add(d.cpu.alloc_ns);
  add(d.cpu.send_post_ns);
  add(d.cpu.memcpy_byte_ns);
  add(d.cpu.metadata_indirection_ns);
  add(d.cpu.erda_index_ns);
  add(d.cpu.rpc_inline_extra_ns);
  add(d.nvm.flush_base_ns);
  add(d.nvm.flush_byte_ns);
  add(d.nvm.fence_ns);
  add(d.nvm.store_byte_ns);
  add(d.nvm.load_byte_ns);
  add(d.crc.per_byte_ns);
  add(d.crc.fixed_ns);
  add(d.fabric.post_overhead_ns);
  add(d.fabric.doorbell_entry_ns);
  add(d.fabric.one_way_ns);
  add(d.fabric.wire_byte_ns);
  add(d.fabric.nic_process_ns);
  add(d.fabric.completion_ns);
  add(d.fabric.jitter_sigma);
  add(static_cast<int>(d.fabric.placement));
  add(d.server_workers);
  add(d.bg_idle_ns);
  add(d.bg_retry_ns);
  add(d.object_timeout_ns);
  add(d.clean_threshold);
  add(d.clean_notify_ns);
  add(d.clean_interference_ns);
  return h;
}

// ============================================================ layer report

/// Instruments of some registries, read by name and summed. A counter
/// that no longer exists is absent, never a crash.
struct Registries {
  std::vector<const efac::metrics::MetricsRegistry*> registries;

  [[nodiscard]] std::optional<std::uint64_t> get(const char* name) const {
    std::optional<std::uint64_t> sum;
    for (const auto* r : registries) {
      if (const efac::metrics::Counter* c = r->find_counter(name)) {
        sum = sum.value_or(0) + c->value();
      }
    }
    return sum;
  }
  /// Virtual ns recorded under a span histogram.
  [[nodiscard]] double span_ns(const char* name) const {
    double sum = 0;
    for (const auto* r : registries) {
      if (const efac::Histogram* h = r->find_histogram(name)) {
        sum += static_cast<double>(h->sum());
      }
    }
    return sum;
  }
};

/// Snapshot of the engine and store counters at the start of a measured
/// phase, so per-layer numbers are deltas over that phase alone.
struct Baseline {
  std::uint64_t events = 0;
  std::uint64_t heap = 0;
  std::uint64_t crc_bytes = 0;
  std::uint64_t lag_sum = 0;
  std::uint64_t lag_count = 0;
  std::map<std::string, std::uint64_t> store;

  static Baseline take(Rig& rig) {
    Baseline b;
    b.events = rig.sim->events_processed();
    b.heap = rig.sim->heap_fallback_dispatches();
    const efac::checksum::CrcCounters& crc = efac::checksum::crc_counters();
    b.crc_bytes = crc.hw_bytes + crc.sw_bytes;
    for (const auto& c : rig.store->metrics().counters()) {
      b.store[c.name] = c.cell.value();
    }
    if (const efac::Histogram* h = rig.store->metrics().find_histogram(
            "span.server.verify_to_flag")) {
      b.lag_sum = h->sum();
      b.lag_count = h->count();
    }
    return b;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-layer metrics of one measured phase (README "Per-layer metrics").
/// `measured` are the measured clients; `store_delta` reads the store
/// registry relative to `base`.
std::map<std::string, Metric> layer_metrics(
    Rig& rig, const Spec& spec, const Phase& phase, const Baseline& base,
    const std::vector<KvClient*>& measured, double measure_host_s) {
  std::map<std::string, Metric> m;
  auto put = [&m](const std::string& name, std::optional<double> v,
                  const char* unit, std::string note = {}) {
    Metric metric{v, unit, std::nullopt, std::move(note)};
    if (!v) metric.note = metric.note.empty() ? "absent" : metric.note;
    m[name] = metric;
  };
  Registries client;
  for (KvClient* c : measured) client.registries.push_back(&c->metrics());
  Registries store;
  store.registries.push_back(&rig.store->metrics());
  auto store_delta = [&](const char* name) -> std::optional<double> {
    const std::optional<std::uint64_t> now = store.get(name);
    if (!now) return std::nullopt;
    const auto it = base.store.find(name);
    return static_cast<double>(*now -
                               (it == base.store.end() ? 0 : it->second));
  };
  auto per = [](std::optional<double> num, double den) {
    return num ? std::optional<double>(ratio(*num, den)) : std::nullopt;
  };
  auto cl = [&client](const char* name) -> std::optional<double> {
    const std::optional<std::uint64_t> v = client.get(name);
    return v ? std::optional<double>(static_cast<double>(*v)) : std::nullopt;
  };

  const auto ops = static_cast<double>(phase.ops);
  const auto puts = static_cast<double>(phase.puts);
  const auto gets = static_cast<double>(phase.gets);
  const double user_bytes = puts * static_cast<double>(spec.value_len);

  const double events =
      static_cast<double>(rig.sim->events_processed() - base.events);
  const double heap =
      static_cast<double>(rig.sim->heap_fallback_dispatches() - base.heap);
  put("sim.events_per_op", ratio(events, ops), "1/op");
  put("sim.heap_fallback_ratio", ratio(heap, events), "ratio");
  put("sim.host_ns_per_event", ratio(measure_host_s * 1e9, events), "ns");

  const efac::checksum::CrcCounters& crc = efac::checksum::crc_counters();
  put("checksum.bytes_per_op",
      ratio(static_cast<double>(crc.hw_bytes + crc.sw_bytes - base.crc_bytes),
            ops),
      "B/op");

  put("nvm.flushes_per_op", per(store_delta("arena.flushes"), ops), "1/op");
  const std::optional<double> lines = store_delta("arena.flushed_lines");
  put("nvm.flush_bytes_per_user_byte",
      lines ? std::optional<double>(ratio(*lines * 64.0, user_bytes))
            : std::nullopt,
      "ratio", "0 when the phase writes nothing");
  put("nvm.dma_bytes_per_user_byte",
      per(store_delta("arena.dma_bytes"), user_bytes), "ratio",
      "0 when the phase writes nothing");

  put("rdma.reads_per_op", per(cl("qp.reads"), ops), "1/op");
  put("rdma.read_bytes_per_op", per(cl("qp.read_bytes"), ops), "B/op");
  put("rdma.writes_per_op", per(cl("qp.writes"), ops), "1/op");
  // Virtual time inside each span, as a share of the clients' summed op
  // time (a share, not a latency: it is 0, not undefined, where the
  // workload never takes that path).
  const auto busy = static_cast<double>(phase.busy_ns);
  for (const auto& [metric, span] :
       std::vector<std::pair<std::string, const char*>>{
           {"rdma.get_entry_read.vt_share", "span.get.entry_read"},
           {"rdma.get_object_read.vt_share", "span.get.object_read"},
           {"rdma.get_spec_read.vt_share", "span.get.spec_read"},
           {"rdma.put_data_write.vt_share", "span.put.data_write"},
           {"rpc.put_alloc_rpc.vt_share", "span.put.alloc_rpc"},
           {"rpc.get_rpc_fallback.vt_share", "span.get.rpc_fallback"}}) {
    put(metric, ratio(client.span_ns(span), busy), "ratio");
  }
  put("rpc.server_requests_per_op", per(store_delta("server.requests"), ops),
      "1/op");

  put("stores.verifier.verified_per_put",
      per(store_delta("server.bg_verified"), puts), "ratio");
  put("stores.verifier.timeouts", store_delta("server.bg_timeouts"), "count");
  put("stores.verifier.backlog_end",
      static_cast<double>(rig.store->verify_queue_depth()), "count");
  // Mean write-to-flag lag of objects flagged during the phase (exact:
  // histogram sum and count deltas). Undefined where nothing was flagged.
  {
    std::optional<double> lag;
    if (const efac::Histogram* h = rig.store->metrics().find_histogram(
            "span.server.verify_to_flag")) {
      if (h->count() > base.lag_count) {
        lag = static_cast<double>(h->sum() - base.lag_sum) / 1000.0 /
              static_cast<double>(h->count() - base.lag_count);
      }
    }
    put("stores.verifier.lag_mean_us", lag, "us",
        lag ? "" : "nothing flagged in the phase");
  }
  put("stores.cleaner.rounds", store_delta("server.cleanings"), "count");
  put("stores.cleaner.copied_per_put",
      per(store_delta("server.cleaned_objects"), puts), "ratio");
  put("stores.cleaner.pool_fill_end",
      rig.store->working_pool().fill_fraction(), "ratio");

  put("stores.read.one_sided_ratio", per(cl("client.gets_pure_rdma"), gets),
      "ratio");
  put("stores.read.rpc_path_ratio", per(cl("client.gets_rpc_path"), gets),
      "ratio");
  put("stores.read.version_rereads_per_get",
      per(cl("client.version_rereads"), gets), "ratio");
  // Adaptive counters exist only on adaptive clients: a plain-read
  // workload makes no adaptive decisions, so its ratios are 0.
  auto adaptive = [&](const char* name, const char* num, const char* den) {
    if (!spec.adaptive) {
      put(name, 0.0, "ratio", "adaptive read off");
      return;
    }
    const std::optional<double> n = cl(num);
    const std::optional<double> d =
        std::string(den) == "gets" ? std::optional<double>(gets) : cl(den);
    put(name, n && d ? std::optional<double>(ratio(*n, *d)) : std::nullopt,
        "ratio");
  };
  adaptive("stores.adaptive.rpc_first_ratio", "read.adaptive.rpc_first",
           "gets");
  adaptive("stores.adaptive.spec_hit_ratio", "read.adaptive.spec_hits",
           "read.adaptive.spec_pairs");
  adaptive("stores.adaptive.hedge_waste_ratio", "read.adaptive.hedges_wasted",
           "read.adaptive.hedges");
  adaptive("stores.adaptive.stale_skip_ratio", "read.adaptive.stale_skips",
           "gets");

  put("stores.client.retries_per_op", per(cl("client.retries"), ops), "ratio");
  put("stores.client.giveups", cl("client.giveups"), "count");
  return m;
}

// ===================================================================== run

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  bool smoke = false;
  std::string out = "-";
  std::string profile_out;
};

struct Report {
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< error statuses and wrong values
  std::uint64_t wrong = 0;   ///< oracle violations of any kind
  std::vector<std::string> violations;
  std::uint64_t dispatch_hash = kFnvOffset;
  std::uint64_t op_hash = kFnvOffset;
  std::vector<std::string> probes;  ///< open loop: one JSON object each

  void absorb(const Phase& phase) {
    attempted += phase.ops;
    failed += phase.errors;
  }
  void absorb(const Oracle& oracle) {
    wrong += oracle.violations();
    for (const std::string& m : oracle.messages()) {
      if (violations.size() < Oracle::kMaxReported) violations.push_back(m);
    }
  }
};

Metric tail_metric(const std::vector<std::uint32_t>& lat, double q) {
  const Tail t = percentile(lat, q);
  Metric m{std::nullopt, "us", t.samples, ""};
  if (t.samples == 0) {
    m.note = "no samples";
  } else if (!t.reportable) {
    m.note = "refused: only " + std::to_string(t.beyond) +
             " samples beyond the rank, 10 needed";
  } else {
    m.value = t.value_us;
  }
  return m;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Metric seconds_metric(double s) { return Metric{s, "s", std::nullopt, ""}; }
Metric count_metric(double n) {
  return Metric{n, "count", std::nullopt, ""};
}

/// Sweep, crash, restart, sweep: the second sweep must return exactly the
/// versions the first one served (eFactory's monotonic-reads claim). The
/// first sweep starts right after the measured phase, with the verifier
/// still behind, so its GETs exercise the selective durability guarantee.
void verify_and_restart(Rig& rig, Report& r, Phase& sweep1) {
  double t0 = host_now_s();
  const std::vector<std::uint64_t> first = sweep(rig, sweep1);
  r.layers["bench.verify_s"] = seconds_metric(host_now_s() - t0);
  t0 = host_now_s();
  rig.store->crash();
  if (!rig.store->restart()) throw std::runtime_error("restart refused");
  Phase sweep2;
  const std::vector<std::uint64_t> second = sweep(rig, sweep2);
  r.layers["bench.restart_s"] = seconds_metric(host_now_s() - t0);
  for (std::uint64_t k = 0; k < rig.keys; ++k) {
    if (first[k] != Oracle::kNever && second[k] != first[k]) {
      ++r.failed;
      rig.oracle->violation(
          k, "monotonic reads: served write " + std::to_string(first[k]) +
                 " before the crash, " +
                 (second[k] == Oracle::kNever
                      ? std::string("nothing valid")
                      : "write " + std::to_string(second[k])) +
                 " after restart");
    }
  }
  r.absorb(sweep1);
  r.absorb(sweep2);
  r.absorb(*rig.oracle);
}

/// Layer report and trace counters of the rig just measured.
void report_layers(Report& r, Rig& rig, const Spec& spec, const Phase& phase,
                   const Baseline& base, const std::vector<KvClient*>& measured,
                   double measure_s, bool traced) {
  r.layers = layer_metrics(rig, spec, phase, base, measured, measure_s);
  r.layers["bench.build_s"] = seconds_metric(rig.build_s);
  r.layers["bench.load_s"] = seconds_metric(rig.load_s);
  r.layers["bench.settle_s"] = seconds_metric(rig.settle_s);
  r.layers["bench.host_ns_per_op"] =
      Metric{ratio(measure_s * 1e9, static_cast<double>(phase.ops)), "ns",
             std::nullopt, ""};
  if (traced) {
    r.layers["trace.recorder_dropped"] =
        count_metric(static_cast<double>(rig.store->trace_log()->dropped()));
    r.layers["trace.telemetry_dropped"] =
        count_metric(static_cast<double>(rig.store->telemetry()->dropped()));
  }
}

std::uint64_t scaled(double seconds, double kops, std::uint64_t quantum) {
  const auto ops =
      static_cast<std::uint64_t>(std::llround(seconds * kops * 1000));
  return std::max<std::uint64_t>(quantum, ops / quantum * quantum);
}

Report run_closed(const Spec& spec, const Options& opt, Profiler* prof) {
  Report r;
  const std::uint64_t keys =
      opt.smoke ? spec.keys / kSmokeKeyDivisor : spec.keys;
  const std::uint64_t quantum = spec.clients * spec.batch;
  const std::uint64_t total = scaled(
      opt.smoke ? kSmokeSeconds : opt.seconds, spec.nominal_kops, quantum);

  // Several set-ups, median reported; the last one is measured.
  constexpr int kSetups = 5;
  std::vector<double> setups;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    rig = make_rig(spec, keys, opt.seed, opt.traced);
    setups.push_back(rig->build_s + rig->load_s + rig->settle_s);
  }
  r.metrics["setup_s"] = Metric{median(setups), "s", setups.size(),
                                "median of set-ups"};
  r.absorb(rig->load);

  Phase phase;
  phase.start = rig->sim->now();
  phase.last_finish = phase.start;
  phase.active = spec.clients;
  const Baseline base = Baseline::take(*rig);
  Rng seeder{opt.seed ^ 0xC11E27};
  std::vector<KvClient*> measured;
  for (std::size_t c = 0; c < spec.clients; ++c) {
    rig->clients.push_back(rig->cluster.make_client(rig->client_options));
    measured.push_back(rig->clients.back().get());
    rig->sim->spawn(closed_client(*rig, spec, *measured.back(), phase,
                                  seeder.fork(), total / spec.clients));
  }
  HostClock clock;
  drive(*rig, phase, clock, total / 50, prof);
  r.dispatch_hash = rig->sim->dispatch_hash();
  r.op_hash = phase.op_hash;
  report_layers(r, *rig, spec, phase, base, measured, clock.total_s(),
                opt.traced);
  r.layers["bench.measure_s"] = seconds_metric(clock.total_s());
  r.absorb(phase);

  Phase sweep1;
  verify_and_restart(*rig, r, sweep1);

  const double span_us =
      static_cast<double>(phase.last_finish - phase.start) / 1000.0;
  r.metrics["vt_mops"] =
      Metric{ratio(static_cast<double>(phase.ok_ops), span_us), "Mops/s",
             phase.ok_ops, ""};
  // A mix without GETs takes them from the post-run sweep, one without
  // PUTs from the load, so every workload reports both op types.
  const bool gets_measured = !phase.get_lat.empty();
  const bool puts_measured = !phase.put_lat.empty();
  const auto& get_lat = gets_measured ? phase.get_lat : sweep1.get_lat;
  const auto& put_lat = puts_measured ? phase.put_lat : rig->load.put_lat;
  r.metrics["vt_get_p50_us"] = tail_metric(get_lat, 0.5);
  r.metrics["vt_get_p999_us"] = tail_metric(get_lat, 0.999);
  r.metrics["vt_put_p50_us"] = tail_metric(put_lat, 0.5);
  r.metrics["vt_put_p999_us"] = tail_metric(put_lat, 0.999);
  for (const char* name : {"vt_get_p50_us", "vt_get_p999_us"}) {
    if (!gets_measured) r.metrics[name].note = "from the post-run sweep";
  }
  for (const char* name : {"vt_put_p50_us", "vt_put_p999_us"}) {
    if (!puts_measured) r.metrics[name].note = "from the load phase";
  }
  r.metrics["host_kops"] = Metric{clock.p90_kops(), "kops/s",
                                  clock.chunks(), "p90 of chunk rates"};
  return r;
}

/// One open-loop probe on a fresh cluster.
struct Probe {
  double offered_mops = 0;
  double achieved_mops = 0;
  double p99_us = 0;  ///< over every op, a failed op counting as a miss
  bool holds = false;
  double setup_s = 0;
  Phase phase;
  std::unique_ptr<Rig> rig;  ///< kept only for the probe that is swept
};

Probe run_probe(const Spec& spec, const Options& opt, std::uint64_t keys,
                double rate_mops, std::uint64_t arrivals, bool keep,
                HostClock& clock, Profiler* prof, Report& r) {
  Probe p;
  p.offered_mops = rate_mops;
  std::unique_ptr<Rig> rig = make_rig(spec, keys, opt.seed, opt.traced);
  p.setup_s = rig->build_s + rig->load_s + rig->settle_s;
  r.absorb(rig->load);
  std::vector<KvClient*> measured;
  for (std::size_t c = 0; c < spec.clients; ++c) {
    rig->clients.push_back(rig->cluster.make_client(rig->client_options));
    measured.push_back(rig->clients.back().get());
  }
  const Baseline base = Baseline::take(*rig);

  Phase& phase = p.phase;
  phase.start = rig->sim->now();
  phase.last_finish = phase.start;
  phase.active = 1;  // the generator
  std::vector<SimTime> due_times;
  std::vector<SimTime> completions;
  due_times.reserve(arrivals);
  completions.reserve(arrivals);
  rig->sim->spawn(open_generator(*rig, &measured, phase,
                                 Rng{opt.seed ^ efac::mix64(arrivals)},
                                 rate_mops, arrivals, &due_times,
                                 &completions));
  const double host0 = clock.total_s();
  drive(*rig, phase, clock, 5'000, prof);
  const double measure_s = clock.total_s() - host0;
  const SimTime last_arrival =
      due_times.empty() ? phase.start : due_times.back();
  fnv_fold(r.dispatch_hash, rig->sim->dispatch_hash());
  fnv_fold(r.op_hash, phase.op_hash);
  r.absorb(phase);

  std::vector<std::uint32_t> all = phase.get_lat;
  all.insert(all.end(), phase.put_lat.begin(), phase.put_lat.end());
  all.resize(phase.ops, std::numeric_limits<std::uint32_t>::max());
  p.p99_us = percentile(all, 0.99).value_us;
  // No growing backlog: ops completing in the late half of the arrival
  // window keep up with the arrivals expected there.
  const SimTime half = phase.start + (last_arrival - phase.start) / 2;
  auto late = [&](const std::vector<SimTime>& times) {
    return static_cast<double>(
        std::count_if(times.begin(), times.end(), [&](SimTime t) {
          return t > half && t <= last_arrival;
        }));
  };
  const double late_ratio = ratio(late(completions), late(due_times));
  p.holds = p.p99_us * 1000.0 <= static_cast<double>(kSloP99Ns) &&
            late_ratio >= kBacklogFloor;
  p.achieved_mops = ratio(
      static_cast<double>(phase.ok_ops),
      static_cast<double>(phase.last_finish - phase.start) / 1000.0);
  r.probes.push_back("{\"offered_mops\": " + json_number(rate_mops) +
                     ", \"achieved_mops\": " + json_number(p.achieved_mops) +
                     ", \"p99_us\": " + json_number(p.p99_us) +
                     ", \"late_ratio\": " + json_number(late_ratio) +
                     ", \"ops\": " + std::to_string(phase.ops) +
                     ", \"holds\": " + (p.holds ? "true" : "false") + "}");
  if (keep) {
    report_layers(r, *rig, spec, phase, base, measured, measure_s,
                  opt.traced);
    p.rig = std::move(rig);
  } else {
    r.absorb(*rig->oracle);
  }
  return p;
}

Report run_open(const Spec& spec, const Options& opt, Profiler* prof) {
  Report r;
  const std::uint64_t keys =
      opt.smoke ? spec.keys / kSmokeKeyDivisor : spec.keys;
  // The budget buys ~6 search probes, the low and high probes (a p99
  // each) and a long mid probe: its ~5 % PUTs need 10k samples for p999.
  const std::uint64_t budget = scaled(
      opt.smoke ? kSmokeSeconds : opt.seconds, spec.nominal_kops, 20);
  const std::uint64_t search_n = budget / 20;
  const std::uint64_t side_n = budget / 10;
  const std::uint64_t mid_n = budget / 2;
  const double precision = opt.smoke ? 0.25 : kBisectPrecision;

  // host_kops comes from the fixed-rate probes only: which rates the
  // search visits depends on the seed, the fixed probes do not.
  HostClock search_clock;
  HostClock clock;
  std::vector<double> setups;
  std::uint64_t probes = 0;
  auto probe = [&](double rate, std::uint64_t n, HostClock& on, bool keep) {
    Probe p = run_probe(spec, opt, keys, rate, n, keep, on, prof, r);
    setups.push_back(p.setup_s);
    ++probes;
    return p;
  };

  // Bisect the offered rate: the highest rate whose p99 meets the SLO
  // without a growing backlog, to `precision`.
  double lo = kOpenGuessMops / 1.05;
  double hi = kOpenGuessMops * 1.05;
  double lo_achieved = 0;
  auto holds = [&](double rate) {
    const Probe p = probe(rate, search_n, search_clock, false);
    if (p.holds && rate >= lo) lo_achieved = p.achieved_mops;
    return p.holds;
  };
  while (!holds(lo)) {
    hi = lo;
    lo /= 1.5;
    if (lo < 0.05) throw std::runtime_error("no offered rate meets the SLO");
  }
  while (holds(hi)) {
    lo = hi;
    hi *= 1.5;
  }
  while ((hi - lo) / lo > precision) {
    const double mid = 0.5 * (lo + hi);
    if (holds(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }

  // Fixed offered rates: latency at each; GET/PUT percentiles and the
  // layer report come from the middle one, which is also swept and
  // crash-restarted. It runs last, so only one cluster is alive at a time.
  const double rate_scale = opt.smoke ? 0.5 : 1.0;
  const Probe low = probe(kOpenLowMops * rate_scale, side_n, clock, false);
  const Probe high = probe(kOpenHighMops * rate_scale, side_n, clock, false);
  Probe mid = probe(kOpenMidMops * rate_scale, mid_n, clock, true);

  r.metrics["setup_s"] = Metric{median(setups), "s", setups.size(),
                                "median of set-ups"};
  r.metrics["vt_mops"] =
      Metric{lo_achieved, "Mops/s", std::nullopt,
             "achieved at the highest offered rate meeting the SLO"};
  r.metrics["vt_slo_mops"] =
      Metric{lo, "Mops/s", probes, "offered, bisected"};
  using Named = std::pair<const char*, const Probe*>;
  for (const auto& [name, p] : {Named{"vt_op_p99_us.low", &low},
                                Named{"vt_op_p99_us.mid", &mid},
                                Named{"vt_op_p99_us.high", &high}}) {
    r.metrics[name] = Metric{p->p99_us, "us", p->phase.ops,
                             "offered " + json_number(p->offered_mops) +
                                 " Mops/s; failures count as misses"};
  }
  r.metrics["vt_get_p50_us"] = tail_metric(mid.phase.get_lat, 0.5);
  r.metrics["vt_get_p999_us"] = tail_metric(mid.phase.get_lat, 0.999);
  r.metrics["vt_put_p50_us"] = tail_metric(mid.phase.put_lat, 0.5);
  r.metrics["vt_put_p999_us"] = tail_metric(mid.phase.put_lat, 0.999);
  r.metrics["host_kops"] = Metric{clock.p90_kops(), "kops/s",
                                  clock.chunks(), "p90 of chunk rates"};
  r.layers["bench.measure_s"] =
      seconds_metric(search_clock.total_s() + clock.total_s());
  r.layers["bench.gen_late_max_us"] = Metric{0.0, "us", std::nullopt,
                                             "0 by construction"};
  Phase sweep1;
  verify_and_restart(*mid.rig, r, sweep1);
  return r;
}

// ==================================================================== main

void write_result(std::ostream& os, const Spec& spec, const Options& opt,
                  const Report& r, std::uint64_t profile_samples) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::map<std::string, Metric> metrics = r.metrics;
  metrics["peak_rss_mb"] =
      Metric{static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB",
             std::nullopt, "ru_maxrss of this process"};
  const double fail_ratio =
      ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted));
  metrics["fail_ratio"] = Metric{fail_ratio, "ratio", r.attempted,
                                 "(failed + wrong) / attempted"};
  std::map<std::string, Metric> layers = r.layers;
  if (opt.traced) {
    layers["trace.samples"] =
        count_metric(static_cast<double>(profile_samples));
  }
  os << "{\n  \"schema\": \"efac.benchmark.result.v1\",\n"
     << "  \"workload\": " << json_string(spec.name) << ",\n"
     << "  \"seed\": " << opt.seed << ",\n"
     << "  \"seconds\": " << json_number(opt.seconds) << ",\n"
     << "  \"traced\": " << (opt.traced ? "true" : "false") << ",\n"
     << "  \"smoke\": " << (opt.smoke ? "true" : "false") << ",\n"
     << "  \"correct\": " << (r.wrong == 0 ? "true" : "false") << ",\n"
     << "  \"attempted\": " << r.attempted << ",\n"
     << "  \"failed\": " << r.failed << ",\n"
     << "  \"wrong\": " << r.wrong << ",\n"
     << "  \"violations\": [";
  for (std::size_t i = 0; i < r.violations.size(); ++i) {
    os << (i == 0 ? "" : ", ") << json_string(r.violations[i]);
  }
  os << "],\n  \"probes\": [";
  for (std::size_t i = 0; i < r.probes.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ") << r.probes[i];
  }
  os << "],\n  \"fingerprint\": {\"dispatch_hash\": "
     << json_string(hex64(r.dispatch_hash))
     << ", \"op_hash\": " << json_string(hex64(r.op_hash))
     << ", \"calibration\": " << json_string(hex64(calibration_fingerprint()))
     << ", \"compiler\": " << json_string(__VERSION__)
     << ", \"build_type\": " << json_string(EFAC_BENCH_BUILD_TYPE) << "},\n"
     << "  \"metrics\": ";
  write_metrics(os, metrics);
  os << ",\n  \"layers\": ";
  write_metrics(os, layers);
  os << "\n}\n";
}

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::optional<std::string> {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) != 0) return std::nullopt;
      return arg.substr(prefix.size());
    };
    if (auto v = value("--workload")) {
      opt.workload = *v;
    } else if (auto s = value("--seed")) {
      opt.seed = std::stoull(*s);
    } else if (auto d = value("--seconds")) {
      opt.seconds = std::stod(*d);
    } else if (auto o = value("--out")) {
      opt.out = *o;
    } else if (auto f = value("--profile-out")) {
      opt.profile_out = *f;
    } else if (arg == "--traced") {
      opt.traced = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      std::cerr << "efac_bench: unknown argument " << arg << "\n";
      return 2;
    }
  }
  const auto it =
      std::find_if(specs().begin(), specs().end(),
                   [&](const Spec& s) { return opt.workload == s.name; });
  if (it == specs().end() || !(opt.seconds > 0 && opt.seconds <= 600)) {
    std::cerr << "efac_bench: --workload must be one of";
    for (const Spec& s : specs()) std::cerr << ' ' << s.name;
    std::cerr << ", and 0 < --seconds <= 600\n";
    return 2;
  }
  try {
    std::unique_ptr<Profiler> prof;
    if (opt.traced) prof = std::make_unique<Profiler>(std::size_t{1} << 22);
    const Report r = it->loop == Loop::kClosed
                         ? run_closed(*it, opt, prof.get())
                         : run_open(*it, opt, prof.get());
    const std::uint64_t samples = prof ? prof->samples() : 0;
    if (prof && !opt.profile_out.empty()) prof->write(opt.profile_out);
    if (opt.out == "-") {
      write_result(std::cout, *it, opt, r, samples);
    } else {
      std::ofstream os(opt.out);
      write_result(os, *it, opt, r, samples);
      if (!os) {
        std::cerr << "efac_bench: cannot write " << opt.out << "\n";
        return 2;
      }
    }
    return r.wrong == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "efac_bench: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace efac_bench

int main(int argc, char** argv) { return efac_bench::main(argc, argv); }
