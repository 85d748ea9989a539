// Fault matrix: every system x every shipped fault plan, with a
// post-recovery consistency oracle. Not a paper figure — this is the
// falsification harness for the paper's §3.3/§3.4/§4 failure-handling
// claims, quantified the same way consistency_matrix quantifies the
// crash-consistency table.
//
// Per (system, plan) cell the harness runs R independent trials: a writer
// hammers a small key set with versioned, self-describing values through
// the retrying client wrappers while the plan injects faults (torn
// writes, lost completions, RPC loss/delay, dropped persists, or a
// whole-server crash+restart). Every trial ends in a power failure and a
// recovery walk of every key, classified against the oracle:
//
//   * recovered bytes must be SOME fully-written version of the RIGHT
//     key, no newer than the last attempted version (no garbage, no
//     blends, no resurrected invalidated versions);
//   * durable-at-ack systems (SAW, IMM, RPC, Rcommit) must never lose an
//     acknowledged write — unless the plan says compromises_durability
//     (lost persists legitimately break that promise; the harness still
//     verifies the failure is *detected* as lost, never served as data);
//   * targeted plans must actually hit the paper mechanism they aim at
//     (eFactory's timeout invalidation under torn writes, the retry
//     machinery under RPC chaos, resumed service after crash+restart).
//
// Violations are counted, printed with the plan text for offline replay
// (see docs/FAULTS.md), exported to BENCH_fault.json, and turn into a
// nonzero exit code.
#include "bench_common.hpp"

#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "common/assert.hpp"
#include "fault/fault.hpp"
#include "stores/efactory.hpp"

namespace efac::bench {
namespace {

using stores::SystemKind;

bool g_smoke = false;
bool g_analysis = false;
int g_violations = 0;

constexpr int kKeys = 8;
constexpr std::size_t kKlen = 32;
constexpr std::size_t kVlen = 1024;

// ------------------------------------------------------------ fault plans

constexpr std::string_view kTornWritePlan =
    "name = torn-write\n"
    "seed = 0xF0\n"
    "fault write_torn every=5 phase=1 mag=0.5\n"
    "fault write_drop_completion every=23 phase=7\n"
    "fault write_duplicate every=19 phase=3\n";

constexpr std::string_view kRpcChaosPlan =
    "name = rpc-chaos\n"
    "seed = 0xF1\n"
    "fault send_drop every=11 phase=2\n"
    "fault resp_drop every=13 phase=4\n"
    "fault send_delay every=7 phase=3 delay_us=40\n"
    "fault resp_delay every=9 phase=5 delay_us=40\n"
    "fault send_duplicate every=17 phase=6\n";

constexpr std::string_view kLostPersistPlan =
    "name = lost-persist\n"
    "seed = 0xF2\n"
    "compromises_durability = true\n"
    "fault persist_drop every=4 phase=1\n"
    "fault persist_delay every=6 phase=3 delay_us=50\n";

constexpr std::string_view kCrashRestartPlan =
    "name = crash-restart\n"
    "seed = 0xF3\n"
    "crash_at_us = 350\n"
    "restart = true\n";

std::vector<fault::FaultPlan> shipped_plans() {
  std::vector<fault::FaultPlan> plans;
  plans.emplace_back();  // "clean": empty plan, pass-through baseline
  for (const std::string_view text :
       {kTornWritePlan, kRpcChaosPlan, kLostPersistPlan, kCrashRestartPlan}) {
    Expected<fault::FaultPlan> plan = fault::FaultPlan::parse(text);
    EFAC_CHECK_MSG(plan.has_value(), plan.status().to_string());
    plans.push_back(*std::move(plan));
  }
  return plans;
}

/// Plans under test: the shipped set, or just the --plan= file.
std::vector<fault::FaultPlan>& plans_under_test() {
  static std::vector<fault::FaultPlan> plans = shipped_plans();
  return plans;
}

// ------------------------------------------------------------ the oracle

Bytes tagged_value(int key, int version) {
  Bytes v(kVlen);
  std::uint64_t state = mix64(static_cast<std::uint64_t>(key) * 48271 +
                              static_cast<std::uint64_t>(version));
  for (std::size_t i = 0; i < kVlen; ++i) {
    if (i % 8 == 0) state = mix64(state + i);
    v[i] = static_cast<std::uint8_t>(state >> ((i % 8) * 8));
  }
  v[0] = static_cast<std::uint8_t>(key);
  v[1] = static_cast<std::uint8_t>(version);
  return v;
}

constexpr bool durable_at_ack(SystemKind kind) {
  return kind == SystemKind::kSaw || kind == SystemKind::kImm ||
         kind == SystemKind::kRpc || kind == SystemKind::kRcommit;
}

struct TrialTally {
  int intact = 0;
  int lost = 0;
  int violations = 0;
  std::uint64_t retries = 0;
  std::uint64_t giveups = 0;
  std::uint64_t bg_timeouts = 0;
  std::uint64_t gets_rpc_path = 0;
  std::uint64_t phase2_acked = 0;  ///< acked writes after crash+restart
};

void report_violation(const fault::FaultPlan& plan, SystemKind kind,
                      int trial, const std::string& what) {
  ++g_violations;
  std::cerr << "FAULT-MATRIX VIOLATION system=" << stores::to_string(kind)
            << " plan=" << plan.name << " trial=" << trial << ": " << what
            << "\nreplay plan:\n"
            << plan.encode() << std::endl;
}

/// Closed-loop writer: versioned puts over the key set, with a read after
/// every put to exercise each system's read protocol under fault. Records
/// acked versions; `*stop` parks it.
sim::Task<void> writer(stores::KvClient& client, workload::Workload& wl,
                       int first_version, int last_version,
                       std::map<int, int>* acked, std::map<int, int>* tried,
                       const bool* stop) {
  for (int v = first_version; v <= last_version && !*stop; ++v) {
    for (int k = 0; k < kKeys && !*stop; ++k) {
      (*tried)[k] = v;
      const Status s = co_await client.put(wl.key_at(k), tagged_value(k, v));
      if (s.is_ok()) (*acked)[k] = v;
      const Expected<Bytes> got = co_await client.get(wl.key_at(k));
      static_cast<void>(got);  // read path driven; oracle is post-recovery
    }
  }
}

TrialTally run_trial(SystemKind kind, const fault::FaultPlan& plan,
                     int trial) {
  TrialTally tally;
  auto sim = std::make_unique<sim::Simulator>();
  stores::StoreConfig config;
  config.pool_bytes = 8 * sizeconst::kMiB;
  config.hash_buckets = 1u << 12;
  config.seed = 0xFA0 + static_cast<std::uint64_t>(trial);
  config.crash_policy.eviction_probability = 0.5;
  config.fault_plan = plan;
  maybe_enable_trace(config);
  if (g_analysis) {
    config.analysis.enabled = true;
    // Plans that legitimately lose persists trip the durability lint by
    // design, and so do duplicated one-sided writes: the spurious
    // retransmission re-dirties already-flushed bytes (same content, but
    // the lint tracks writes, not values). The race rules stay armed
    // regardless.
    config.analysis.allow_unflushed_durability =
        plan.compromises_durability ||
        plan.at(fault::Site::kWriteDuplicate).active();
  }

  stores::ClientOptions options;
  options.retry.max_attempts = 4;
  // The timeout must clear the plan's injected delays (40 us) plus normal
  // service time, so delayed-but-alive RPCs are not misread as lost.
  options.retry.rpc_timeout_ns = 60 * timeconst::kMicrosecond;
  options.retry.backoff_base_ns = 2 * timeconst::kMicrosecond;
  options.retry.backoff_cap_ns = 50 * timeconst::kMicrosecond;
  options.retry.jitter = 0.2;
  options.retry.seed = 0xB0FF + static_cast<std::uint64_t>(trial);
  if (plan.at(fault::Site::kWriteTorn).active()) {
    // Torn-write plans model the paper's §3.3 scenario: a client dies
    // mid-WRITE and never completes the payload. A live retrying client
    // would supersede the torn version within microseconds (the verifier
    // skips superseded versions), so the timeout-invalidation path only
    // runs when nobody retries — and the server timeout is tightened so
    // the invalidation lands before the key's next overwrite round.
    options.retry.max_attempts = 1;
    config.object_timeout_ns = 40 * timeconst::kMicrosecond;
  }

  stores::Cluster cluster = stores::make_cluster(*sim, kind, config);
  cluster.start();
  options.size_hint = {kKlen, kVlen};
  auto client = cluster.make_client(options);
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = kKeys, .key_len = kKlen, .value_len = kVlen}};

  std::map<int, int> acked;
  std::map<int, int> tried;
  bool stop = false;
  sim->spawn(writer(*client, wl, 1, 60, &acked, &tried, &stop));

  std::unique_ptr<stores::KvClient> client2;
  std::map<int, int> acked2;
  if (plan.crash_at_ns > 0) {
    sim->run_until(plan.crash_at_ns);
    stop = true;
    cluster.store->crash();
    const bool resumed = cluster.store->restart();
    if (plan.restart && resumed) {
      // Service is back: a fresh client drives a second load phase whose
      // versions continue above phase 1, then the trial ends in a second,
      // final power failure.
      client2 = cluster.make_client(options);
      bool stop2 = false;
      sim->spawn(writer(*client2, wl, 100, 140, &acked2, &tried, &stop2));
      sim->run_until(plan.crash_at_ns + 300 * timeconst::kMicrosecond);
      stop2 = true;
      sim->run_until(plan.crash_at_ns + 500 * timeconst::kMicrosecond);
      cluster.store->crash();
      for (const auto& [k, v] : acked2) {
        static_cast<void>(k);
        static_cast<void>(v);
        ++tally.phase2_acked;
      }
      for (const auto& [k, v] : acked2) acked[k] = v;
    } else if (plan.restart && !resumed) {
      // No online recovery procedure: classification happens on the
      // mid-run crash image (same oracle, no second phase).
      tally.phase2_acked = 0;
    }
  } else {
    // Let the writer run, then park it and settle so background work
    // (eFactory's verifier, delayed persists) drains before the crash.
    const SimTime horizon =
        450 * timeconst::kMicrosecond +
        static_cast<SimTime>(trial) * 37 * timeconst::kMicrosecond;
    sim->run_until(horizon);
    stop = true;
    sim->run_until(horizon + 200 * timeconst::kMicrosecond);
    cluster.store->crash();
  }

  // ------------------------------------------------ recovery + verdicts
  for (int k = 0; k < kKeys; ++k) {
    const Expected<Bytes> got = cluster.store->recover_get(wl.key_at(k));
    if (!got.has_value()) {
      ++tally.lost;
      if (durable_at_ack(kind) && !plan.compromises_durability &&
          acked.count(k) != 0) {
        std::ostringstream what;
        what << "acked write lost: key " << k << " acked v" << acked[k]
             << " but recovery found nothing (" << got.status().to_string()
             << ")";
        report_violation(plan, kind, trial, what.str());
        ++tally.violations;
      }
      continue;
    }
    const int rkey = got->size() >= 2 ? (*got)[0] : -1;
    const int rver = got->size() >= 2 ? (*got)[1] : -1;
    const bool well_formed = got->size() == kVlen && rkey == k &&
                             tried.count(k) != 0 && rver <= tried[k] &&
                             *got == tagged_value(rkey, rver);
    if (!well_formed) {
      std::ostringstream what;
      what << "recovered garbage for key " << k << " (" << got->size()
           << " bytes, tag key=" << rkey << " ver=" << rver << ")";
      report_violation(plan, kind, trial, what.str());
      ++tally.violations;
      continue;
    }
    ++tally.intact;
    if (durable_at_ack(kind) && !plan.compromises_durability &&
        acked.count(k) != 0 && rver < acked[k]) {
      std::ostringstream what;
      what << "acked write lost: key " << k << " acked v" << acked[k]
           << " but recovery returned v" << rver;
      report_violation(plan, kind, trial, what.str());
      ++tally.violations;
    }
  }

  if (analysis::Checker* checker = cluster.store->checker();
      checker != nullptr) {
    const std::uint64_t flagged =
        checker->unguarded_races() + checker->durability_violations();
    if (flagged != 0) {
      report_violation(plan, kind, trial,
                       "conflict sanitizer flagged the trial:\n" +
                           checker->report());
      tally.violations += static_cast<int>(flagged);
    }
  }

  // Retries and give-ups of both clients, summed by the registry merge.
  metrics::MetricsRegistry clients;
  client->merge_metrics_into(clients, {});
  if (client2) client2->merge_metrics_into(clients, {});
  tally.retries = clients.counter("client.retries");
  tally.giveups = clients.counter("client.giveups");
  tally.gets_rpc_path = client->stats().gets_rpc_path;
  tally.bg_timeouts = cluster.store->server_stats().bg_timeouts;

  std::string prefix = "fault/";
  prefix += plan.name;
  prefix += "/";
  prefix += stores::to_string(kind);
  prefix += "/";
  metrics_sink().merge_from(client->metrics(), prefix);
  if (client2) metrics_sink().merge_from(client2->metrics(), prefix);
  metrics_sink().merge_from(cluster.store->metrics(), prefix);
  maybe_adopt_trace(*cluster.store, prefix + "trial" + std::to_string(trial));
  return tally;
}

void run_cell(benchmark::State& state, SystemKind kind,
              const fault::FaultPlan& plan) {
  const int trials = g_smoke ? 2 : 5;
  for (auto _ : state) {
    TrialTally total;
    for (int trial = 0; trial < trials; ++trial) {
      const TrialTally t = run_trial(kind, plan, trial);
      total.intact += t.intact;
      total.lost += t.lost;
      total.violations += t.violations;
      total.retries += t.retries;
      total.giveups += t.giveups;
      total.bg_timeouts += t.bg_timeouts;
      total.gets_rpc_path += t.gets_rpc_path;
      total.phase2_acked += t.phase2_acked;
    }

    // Targeted assertions: each plan must actually reach the paper
    // mechanism it aims at (otherwise the matrix silently tests nothing).
    const bool efactory = kind == SystemKind::kEFactory;
    if (efactory && plan.name == "torn-write") {
      if (total.bg_timeouts == 0) {
        report_violation(plan, kind, -1,
                         "torn-write plan never drove eFactory's timeout "
                         "invalidation (bg_timeouts == 0)");
        ++total.violations;
      }
      if (total.gets_rpc_path == 0) {
        report_violation(plan, kind, -1,
                         "torn-write plan never drove the hybrid-read RPC "
                         "fallback (gets_rpc_path == 0)");
        ++total.violations;
      }
    }
    if (efactory && plan.name == "rpc-chaos" && total.retries == 0) {
      report_violation(plan, kind, -1,
                       "rpc-chaos plan never drove the retry machinery "
                       "(client.retries == 0)");
      ++total.violations;
    }
    if (efactory && plan.name == "crash-restart" &&
        total.phase2_acked == 0) {
      report_violation(plan, kind, -1,
                       "crash-restart plan: no write was acked after "
                       "restart (service did not resume)");
      ++total.violations;
    }

    const std::string row{stores::to_string(kind)};
    const std::string table = "Fault matrix — " + plan.name + " (" +
                              std::to_string(trials) + " trials x " +
                              std::to_string(kKeys) + " keys)";
    const int total_keys = trials * kKeys;
    Summary::instance().add(table, row, "intact %",
                            100.0 * total.intact / total_keys, 1);
    Summary::instance().add(table, row, "lost %",
                            100.0 * total.lost / total_keys, 1);
    Summary::instance().add(table, row, "violations",
                            static_cast<double>(total.violations), 0);
    Summary::instance().add(table, row, "retries",
                            static_cast<double>(total.retries), 0);
    Summary::instance().add(table, row, "giveups",
                            static_cast<double>(total.giveups), 0);

    std::string prefix = "fault/";
    prefix += plan.name;
    prefix += "/";
    prefix += stores::to_string(kind);
    prefix += "/";
    metrics_sink().counter(prefix + "verdict.consistent") +=
        total.violations == 0 ? 1 : 0;
    metrics_sink().counter(prefix + "verdict.violations") +=
        static_cast<std::uint64_t>(total.violations);
    state.counters["violations"] = total.violations;
    state.SetIterationTime(1e-3);  // wall-clock is irrelevant here
  }
}

void register_benches() {
  for (const fault::FaultPlan& plan : plans_under_test()) {
    for (const SystemKind kind : stores::all_systems()) {
      std::string name = "fault/";
      name += plan.name;
      name += "/";
      name += stores::to_string(kind);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [kind, &plan](benchmark::State& state) {
            run_cell(state, kind, plan);
          })
          ->Iterations(1)
          ->UseManualTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace efac::bench

int main(int argc, char** argv) {
  // Strip --smoke / --plan=<file> before google-benchmark sees the argv.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      efac::bench::g_smoke = true;
    } else if (std::strcmp(argv[i], "--analysis") == 0) {
      // Run every trial under the conflict sanitizer; checker verdicts
      // (unguarded races, durability-lint hits) count as violations.
      efac::bench::g_analysis = true;
    } else if (std::strncmp(argv[i], "--plan=", 7) == 0) {
      const char* path = argv[i] + 7;
      std::ifstream in{path};
      std::stringstream text;
      text << in.rdbuf();
      if (!in) {
        std::cerr << "cannot read plan file: " << path << std::endl;
        return 1;
      }
      efac::Expected<efac::fault::FaultPlan> plan =
          efac::fault::FaultPlan::parse(text.str());
      if (!plan) {
        std::cerr << "bad plan file " << path << ": "
                  << plan.status().to_string() << std::endl;
        return 1;
      }
      efac::bench::plans_under_test() = {*std::move(plan)};
    } else {
      args.push_back(argv[i]);
    }
  }
  args.push_back(nullptr);
  int filtered_argc = static_cast<int>(args.size()) - 1;
  efac::bench::register_benches();
  // Under the sanitizer the export carries the analysis.* counters, so it
  // gets its own figure name and its own baseline.
  const int rc = efac::bench::bench_main(
      filtered_argc, args.data(),
      efac::bench::g_analysis ? "fault_analysis" : "fault");
  if (rc != 0) return rc;
  if (efac::bench::g_violations != 0) {
    std::cerr << efac::bench::g_violations
              << " fault-matrix violation(s); see stderr above and "
                 "BENCH_fault.json"
              << std::endl;
    return 2;
  }
  return 0;
}
