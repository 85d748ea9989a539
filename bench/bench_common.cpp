#include "bench_common.hpp"

#include <fstream>
#include <iostream>
#include <memory>
#include <utility>

#include "metrics/telemetry.hpp"
#include "stores/efactory.hpp"
#include "trace/chrome.hpp"

namespace efac::bench {

namespace {

using stores::Cluster;
using stores::SystemKind;
using workload::Workload;
using workload::WorkloadConfig;

constexpr std::size_t kKeyLen = 32;  // the paper's key size

stores::StoreConfig latency_config(std::size_t value_len, std::size_t ops,
                                   std::uint64_t seed) {
  stores::StoreConfig config;
  const std::size_t object = kv::ObjectLayout::total_size(kKeyLen, value_len);
  config.pool_bytes =
      std::max<std::size_t>(2 * sizeconst::kMiB, (ops + 256) * object * 2);
  config.hash_buckets = 1u << 12;
  config.seed = seed;
  return config;
}

/// "put/Erda/4KB/" etc — the sink prefix for one measured point.
std::string point_prefix(std::string_view op, SystemKind kind,
                         std::size_t value_len) {
  std::string prefix{op};
  prefix += "/";
  prefix += stores::to_string(kind);
  prefix += "/";
  prefix += size_label(value_len);
  prefix += "/";
  return prefix;
}

// --trace-out= state: the export path (empty = tracing off) and the
// snapshots adopted from each traced run, in measurement order.
std::string g_trace_path;
std::vector<trace::EventLog::Snapshot> g_trace_snapshots;

// --telemetry state: sampler on/off and the snapshots adopted from each
// sampled run, in measurement order.
bool g_telemetry = false;
std::vector<metrics::TelemetrySnapshot> g_telem_snapshots;

}  // namespace

metrics::MetricsRegistry& metrics_sink() {
  static metrics::MetricsRegistry sink;
  return sink;
}

metrics::MetricsRegistry& shard_sink() {
  static metrics::MetricsRegistry sink;
  return sink;
}

bool trace_requested() { return !g_trace_path.empty(); }

void maybe_enable_trace(stores::StoreConfig& config) {
  if (trace_requested()) config.trace.enabled = true;
}

void maybe_adopt_trace(stores::StoreBase& store, std::string label) {
  trace::EventLog* log = store.trace_log();
  if (log == nullptr) return;
  g_trace_snapshots.push_back(log->snapshot(std::move(label)));
}

bool telemetry_requested() { return g_telemetry; }

void maybe_enable_telemetry(stores::StoreConfig& config) {
  if (!g_telemetry) return;
  config.telemetry.enabled = true;
}

void maybe_adopt_telemetry(stores::StoreBase& store, std::string label) {
  metrics::TelemetrySampler* sampler = store.telemetry();
  if (sampler == nullptr) return;
  g_telem_snapshots.push_back(sampler->snapshot(std::move(label)));
}

Histogram measure_put_latency(SystemKind kind, std::size_t value_len,
                              std::size_t ops, std::uint64_t seed) {
  auto sim = std::make_unique<sim::Simulator>();
  stores::StoreConfig config = latency_config(value_len, ops, seed);
  maybe_enable_trace(config);
  maybe_enable_telemetry(config);
  Cluster cluster = stores::make_cluster(*sim, kind, config);
  cluster.start();
  stores::ClientOptions copts;
  copts.size_hint = {kKeyLen, value_len};
  auto client = cluster.make_client(copts);

  Workload workload{WorkloadConfig{.mix = workload::Mix::kUpdateOnly,
                                   .key_count = 64,
                                   .key_len = kKeyLen,
                                   .value_len = value_len,
                                   .seed = seed}};
  Histogram hist;
  bool done = false;
  sim->spawn([](sim::Simulator& s, stores::KvClient& c, Workload& w,
                std::size_t n, Histogram* out, bool* flag) -> sim::Task<void> {
    constexpr std::size_t kWarmup = 100;
    for (std::size_t i = 0; i < n + kWarmup; ++i) {
      const std::uint64_t key = i % 64;
      const SimTime start = s.now();
      const Status status =
          co_await c.put(w.key_at(key), w.value_for(key, i));
      EFAC_CHECK_MSG(status.is_ok(), "bench PUT failed: "
                                         << status.to_string());
      if (i >= kWarmup) out->record(s.now() - start);
    }
    *flag = true;
  }(*sim, *client, workload, ops, &hist, &done));
  while (!done) sim->run_until(sim->now() + timeconst::kMillisecond);
  const std::string prefix = point_prefix("put", kind, value_len);
  metrics_sink().merge_from(client->metrics(), prefix);
  metrics_sink().merge_from(cluster.store->metrics(), prefix);
  maybe_adopt_trace(*cluster.store, prefix);
  maybe_adopt_telemetry(*cluster.store, prefix);
  sim.reset();
  return hist;
}

Histogram measure_get_latency(SystemKind kind, std::size_t value_len,
                              std::size_t ops, std::uint64_t seed) {
  auto sim = std::make_unique<sim::Simulator>();
  stores::StoreConfig config = latency_config(value_len, 512, seed);
  maybe_enable_trace(config);
  maybe_enable_telemetry(config);
  Cluster cluster = stores::make_cluster(*sim, kind, config);
  cluster.start();
  stores::ClientOptions copts;
  copts.size_hint = {kKeyLen, value_len};
  auto client = cluster.make_client(copts);

  Workload workload{WorkloadConfig{.mix = workload::Mix::kReadOnly,
                                   .key_count = 64,
                                   .key_len = kKeyLen,
                                   .value_len = value_len,
                                   .seed = seed}};
  // Load, then settle so background verification completes.
  bool loaded = false;
  sim->spawn([](stores::KvClient& c, Workload& w, bool* flag)
                 -> sim::Task<void> {
    for (std::uint64_t k = 0; k < 64; ++k) {
      const Status status = co_await c.put(w.key_at(k), w.value_for(k, 0));
      EFAC_CHECK(status.is_ok());
    }
    *flag = true;
  }(*client, workload, &loaded));
  while (!loaded) sim->run_until(sim->now() + timeconst::kMillisecond);
  if (auto* efactory =
          dynamic_cast<stores::EFactoryStore*>(cluster.store.get())) {
    for (int i = 0; i < 1000 && efactory->verify_queue_depth() > 0; ++i) {
      sim->run_until(sim->now() + 100 * timeconst::kMicrosecond);
    }
  }
  sim->run_until(sim->now() + timeconst::kMillisecond);

  Histogram hist;
  bool done = false;
  sim->spawn([](sim::Simulator& s, stores::KvClient& c, Workload& w,
                std::size_t n, Histogram* out, bool* flag) -> sim::Task<void> {
    Rng rng{0xBEEF};
    constexpr std::size_t kWarmup = 100;
    for (std::size_t i = 0; i < n + kWarmup; ++i) {
      const std::uint64_t key = rng.next_below(64);
      const SimTime start = s.now();
      const Expected<Bytes> value = co_await c.get(w.key_at(key));
      EFAC_CHECK_MSG(value.has_value(), "bench GET failed: "
                                            << value.status().to_string());
      if (i >= kWarmup) out->record(s.now() - start);
    }
    *flag = true;
  }(*sim, *client, workload, ops, &hist, &done));
  while (!done) sim->run_until(sim->now() + timeconst::kMillisecond);
  const std::string prefix = point_prefix("get", kind, value_len);
  metrics_sink().merge_from(client->metrics(), prefix);
  metrics_sink().merge_from(cluster.store->metrics(), prefix);
  maybe_adopt_trace(*cluster.store, prefix);
  maybe_adopt_telemetry(*cluster.store, prefix);
  sim.reset();
  return hist;
}

workload::RunResult throughput_run(SystemKind kind, workload::Mix mix,
                                   std::size_t value_len, std::size_t clients,
                                   std::size_t ops_per_client,
                                   std::uint64_t key_count,
                                   std::uint64_t seed,
                                   stores::ClientOptions client) {
  workload::RunOptions options;
  options.workload.mix = mix;
  options.workload.key_count = key_count;
  options.workload.key_len = kKeyLen;
  options.workload.value_len = value_len;
  options.workload.seed = seed;
  options.clients = clients;
  options.ops_per_client = ops_per_client;
  options.client = std::move(client);

  auto sim = std::make_unique<sim::Simulator>();
  stores::StoreConfig config = workload::sized_store_config(options);
  maybe_enable_trace(config);
  maybe_enable_telemetry(config);
  Cluster cluster = stores::make_cluster(*sim, kind, config);
  workload::RunResult result = workload::run_workload(*sim, cluster, options);
  std::string label = "run/";
  label += workload::to_string(mix);
  label += "/";
  label += stores::to_string(kind);
  label += "/";
  label += size_label(value_len);
  label += "/";
  maybe_adopt_trace(*cluster.store, label);
  maybe_adopt_telemetry(*cluster.store, std::move(label));
  sim.reset();
  return result;
}

workload::RunResult sharded_throughput_run(SystemKind kind,
                                           workload::Mix mix,
                                           std::size_t value_len,
                                           std::size_t clients,
                                           std::size_t shards,
                                           std::size_t ops_per_client,
                                           std::uint64_t key_count,
                                           std::uint64_t seed,
                                           double zipf_theta) {
  workload::RunOptions options;
  options.workload.mix = mix;
  options.workload.key_count = key_count;
  options.workload.key_len = kKeyLen;
  options.workload.value_len = value_len;
  options.workload.seed = seed;
  options.workload.zipf_theta = zipf_theta;
  options.clients = clients;
  options.ops_per_client = ops_per_client;

  auto sim = std::make_unique<sim::Simulator>();
  stores::ClusterConfig cluster_config;
  cluster_config.num_shards = shards;
  cluster_config.store = workload::sized_store_config(options);
  maybe_enable_trace(cluster_config.store);
  maybe_enable_telemetry(cluster_config.store);
  stores::ShardedCluster cluster =
      stores::make_sharded_cluster(*sim, kind, std::move(cluster_config));
  workload::RunResult result = workload::run_workload(*sim, cluster, options);
  if (trace_requested() || telemetry_requested()) {
    std::string label = "shard/";
    label += workload::to_string(mix);
    label += "/";
    label += stores::to_string(kind);
    label += "/shards:";
    label += std::to_string(shards);
    label += "/";
    for (std::size_t s = 0; s < cluster.num_shards(); ++s) {
      maybe_adopt_trace(cluster.store(s), label + "s" + std::to_string(s));
      maybe_adopt_telemetry(cluster.store(s),
                            label + "s" + std::to_string(s));
    }
  }
  sim.reset();
  return result;
}

workload::RunResult sharded_throughput_point(
    SystemKind kind, workload::Mix mix, std::size_t value_len,
    std::size_t clients, std::size_t shards, std::size_t ops_per_client,
    std::uint64_t key_count, int runs, double zipf_theta) {
  EFAC_CHECK(runs >= 1);
  workload::RunResult combined;
  double mops_sum = 0.0;
  double put_mops_sum = 0.0;
  bool have_first = false;
  for (int r = 0; r < runs; ++r) {
    workload::RunResult result = sharded_throughput_run(
        kind, mix, value_len, clients, shards, ops_per_client, key_count,
        0xF9 + static_cast<std::uint64_t>(r) * 97, zipf_theta);
    mops_sum += result.mops;
    if (result.span_ns > 0) {
      put_mops_sum += static_cast<double>(result.puts) * 1000.0 /
                      static_cast<double>(result.span_ns);
    }
    if (!have_first) {
      combined = std::move(result);
      have_first = true;
    } else {
      combined.put_latency.merge(result.put_latency);
      combined.get_latency.merge(result.get_latency);
      combined.op_latency.merge(result.op_latency);
      combined.ops += result.ops;
      combined.puts += result.puts;
      combined.gets += result.gets;
      combined.get_failures += result.get_failures;
      combined.put_failures += result.put_failures;
      combined.span_ns += result.span_ns;
      combined.metrics.merge_from(result.metrics);
    }
  }
  combined.mops = mops_sum / runs;
  std::string prefix = "run/";
  prefix += workload::to_string(mix);
  prefix += "/";
  prefix += stores::to_string(kind);
  prefix += "/";
  prefix += size_label(value_len);
  prefix += "/shards:";
  prefix += std::to_string(shards);
  prefix += "/clients:";
  prefix += std::to_string(clients);
  prefix += "/";
  shard_sink().merge_from(combined.metrics, prefix);
  // The headline gauges the scaling analysis (and CI) read directly.
  shard_sink().gauge(prefix + "run.mops").set(combined.mops);
  shard_sink().gauge(prefix + "run.put_mops").set(put_mops_sum / runs);
  return combined;
}

workload::RunResult throughput_point(SystemKind kind, workload::Mix mix,
                                     std::size_t value_len,
                                     std::size_t clients,
                                     std::size_t ops_per_client,
                                     std::uint64_t key_count, int runs,
                                     stores::ClientOptions client) {
  EFAC_CHECK(runs >= 1);
  workload::RunResult combined;
  double mops_sum = 0.0;
  bool have_first = false;
  for (int r = 0; r < runs; ++r) {
    workload::RunResult result = throughput_run(
        kind, mix, value_len, clients, ops_per_client, key_count,
        0xF9 + static_cast<std::uint64_t>(r) * 97, client);
    mops_sum += result.mops;
    if (!have_first) {
      combined = std::move(result);
      have_first = true;
    } else {
      // Pool latency samples and counters across the runs.
      combined.put_latency.merge(result.put_latency);
      combined.get_latency.merge(result.get_latency);
      combined.op_latency.merge(result.op_latency);
      combined.ops += result.ops;
      combined.puts += result.puts;
      combined.gets += result.gets;
      combined.get_failures += result.get_failures;
      combined.put_failures += result.put_failures;
      combined.span_ns += result.span_ns;
      combined.metrics.merge_from(result.metrics);
    }
  }
  combined.mops = mops_sum / runs;
  std::string prefix = "run/";
  prefix += workload::to_string(mix);
  prefix += "/";
  prefix += stores::to_string(kind);
  prefix += "/";
  prefix += size_label(value_len);
  prefix += "/clients:";
  prefix += std::to_string(clients);
  prefix += "/";
  metrics_sink().merge_from(combined.metrics, prefix);
  return combined;
}

Summary& Summary::instance() {
  static Summary summary;
  return summary;
}

void Summary::add(const std::string& table, const std::string& row,
                  const std::string& column, double value, int precision) {
  auto [it, inserted] = tables_.try_emplace(table);
  if (inserted) table_order_.push_back(table);
  Table& t = it->second;
  if (std::find(t.columns.begin(), t.columns.end(), column) ==
      t.columns.end()) {
    t.columns.push_back(column);
  }
  if (std::find(t.rows.begin(), t.rows.end(), row) == t.rows.end()) {
    t.rows.push_back(row);
  }
  t.cells[row][column] = TextTable::num(value, precision);
}

void Summary::print_all() const {
  for (const std::string& name : table_order_) {
    const Table& t = tables_.at(name);
    TextTable out{name};
    std::vector<std::string> header{""};
    header.insert(header.end(), t.columns.begin(), t.columns.end());
    out.set_header(std::move(header));
    for (const std::string& row : t.rows) {
      std::vector<std::string> cells{row};
      const auto row_it = t.cells.find(row);
      for (const std::string& col : t.columns) {
        const auto cell_it = row_it->second.find(col);
        cells.push_back(cell_it == row_it->second.end() ? "-"
                                                        : cell_it->second);
      }
      out.add_row(std::move(cells));
    }
    out.print(std::cout);
  }
  std::cout << std::endl;
}

namespace {

/// Escape a display name for literal use inside a benchmark_filter regex.
std::string regex_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (std::string_view{"\\^$.|?*+()[]{}"}.find(c) !=
        std::string_view::npos) {
      out += '\\';
    }
    out += c;
  }
  return out;
}

/// Translate "--system=Erda,SAW" into a --benchmark_filter regex matching
/// benchmark names that contain "/<display name>" followed by "/" or end
/// (the anchor keeps "eFactory" from also selecting "eFactory w/o hr").
Expected<std::string> system_filter(std::string_view arg) {
  std::string alternatives;
  std::size_t start = 0;
  while (start <= arg.size()) {
    const std::size_t comma = std::min(arg.find(',', start), arg.size());
    const std::string_view name = arg.substr(start, comma - start);
    if (!name.empty()) {
      const Expected<stores::SystemKind> kind = stores::from_string(name);
      if (!kind) return kind.status();
      if (!alternatives.empty()) alternatives += "|";
      alternatives += regex_escape(stores::to_string(*kind));
    }
    start = comma + 1;
  }
  if (alternatives.empty()) {
    return Status{StatusCode::kInvalidArgument, "--system= needs a name"};
  }
  return "/(" + alternatives + ")(/|$)";
}

}  // namespace

int bench_main(int argc, char** argv, std::string_view figure) {
  // Rewrite our --system= convenience flag into google-benchmark's filter
  // and strip --trace-out= before Initialize() sees the argument list.
  std::vector<char*> args;
  std::string filter_arg;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    constexpr std::string_view kSystemFlag = "--system=";
    constexpr std::string_view kTraceFlag = "--trace-out=";
    if (arg == "--telemetry") {
      g_telemetry = true;
      continue;
    }
    if (arg.rfind(kTraceFlag, 0) == 0) {
      g_trace_path = std::string{arg.substr(kTraceFlag.size())};
      if (g_trace_path.empty()) {
        std::cerr << "--trace-out= needs a path" << std::endl;
        return 1;
      }
      continue;
    }
    if (arg.rfind(kSystemFlag, 0) == 0) {
      const Expected<std::string> filter =
          system_filter(arg.substr(kSystemFlag.size()));
      if (!filter) {
        std::cerr << filter.status().to_string() << "\nvalid systems:";
        for (const stores::SystemKind kind : stores::all_systems()) {
          std::cerr << " \"" << stores::to_string(kind) << "\"";
        }
        std::cerr << std::endl;
        return 1;
      }
      filter_arg = "--benchmark_filter=" + *filter;
      args.push_back(filter_arg.data());
    } else {
      args.push_back(argv[i]);
    }
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  Summary::instance().print_all();

  const std::string path = "BENCH_" + std::string{figure} + ".json";
  std::ofstream out{path};
  metrics::write_json(out, metrics_sink(), figure);
  out << "\n";
  if (!out) {
    std::cerr << "failed to write " << path << std::endl;
    return 1;
  }
  std::cout << "metrics exported to " << path << std::endl;

  if (!shard_sink().empty()) {
    const std::string shard_path = "BENCH_shard.json";
    std::ofstream shard_out{shard_path};
    metrics::write_json(shard_out, shard_sink(), "shard");
    shard_out << "\n";
    if (!shard_out) {
      std::cerr << "failed to write " << shard_path << std::endl;
      return 1;
    }
    std::cout << "shard metrics exported to " << shard_path << std::endl;
  }

  if (trace_requested()) {
    // Self-check the export against the golden schema before writing: a
    // malformed trace should fail the bench run, not the Perfetto load.
    const std::string doc = trace::to_chrome_trace(g_trace_snapshots);
    if (const Status valid = trace::validate_chrome_trace(doc);
        !valid.is_ok()) {
      std::cerr << "trace export failed validation: " << valid.to_string()
                << std::endl;
      return 1;
    }
    std::ofstream trace_out{g_trace_path};
    trace_out << doc << "\n";
    std::ofstream bin_out{g_trace_path + ".bin", std::ios::binary};
    trace::write_binary(bin_out, g_trace_snapshots);
    if (!trace_out || !bin_out) {
      std::cerr << "failed to write " << g_trace_path << std::endl;
      return 1;
    }
    std::cout << g_trace_snapshots.size() << " trace snapshot(s) exported to "
              << g_trace_path << " (+ .bin)" << std::endl;
  }

  if (telemetry_requested()) {
    // Same self-check discipline as the trace export: a document our own
    // validator rejects should fail the bench, not the downstream tool.
    const std::string doc = metrics::to_telemetry_json(g_telem_snapshots,
                                                       figure);
    if (const Status valid = metrics::validate_telemetry_json(doc);
        !valid.is_ok()) {
      std::cerr << "telemetry export failed validation: " << valid.to_string()
                << std::endl;
      return 1;
    }
    const std::string telem_path = "TELEM_" + std::string{figure} + ".json";
    std::ofstream telem_out{telem_path};
    telem_out << doc << "\n";
    if (!telem_out) {
      std::cerr << "failed to write " << telem_path << std::endl;
      return 1;
    }
    std::cout << g_telem_snapshots.size()
              << " telemetry snapshot(s) exported to " << telem_path
              << std::endl;
  }
  return 0;
}

}  // namespace efac::bench
