#include "stores/stats_report.hpp"

#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/table.hpp"
#include "stores/store_base.hpp"

namespace efac::stores {

namespace {

/// One report row: a display label bound to a registry counter name.
/// When `denominator` is set the row renders as a rounded percentage of
/// that counter instead of a raw count (and is omitted while the
/// denominator is zero — a rate over nothing is noise, not data).
struct Row {
  const char* label;
  const char* counter;
  const char* denominator = nullptr;
};

std::uint64_t counter_or_zero(const metrics::MetricsRegistry& registry,
                              std::string_view name) {
  const metrics::Counter* c = registry.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

void pad_label(std::ostream& os, const char* label) {
  os << "  " << label;
  for (std::size_t pad = 0; pad + std::string_view{label}.size() < 34;
       ++pad) {
    os << ' ';
  }
}

double pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

/// The single render path: a section header followed by table rows
/// (counts, or percentages for rows with a denominator).
void section(std::ostream& os, const char* header,
             const metrics::MetricsRegistry& registry,
             std::initializer_list<Row> rows) {
  os << header << ":\n";
  for (const Row& row : rows) {
    if (row.denominator == nullptr) {
      pad_label(os, row.label);
      os << counter_or_zero(registry, row.counter) << '\n';
      continue;
    }
    const std::uint64_t whole = counter_or_zero(registry, row.denominator);
    if (whole == 0) continue;
    pad_label(os, row.label);
    os << static_cast<int>(
              pct(counter_or_zero(registry, row.counter), whole) + 0.5)
       << "%\n";
  }
}

}  // namespace

void print_server_stats(std::ostream& os,
                        const metrics::MetricsRegistry& registry) {
  section(os, "server", registry,
          {{"requests handled", "server.requests"},
           {"allocations", "server.allocs"},
           {"persist operations", "server.persists"},
           {"CRC verifications", "server.crc_checks"},
           {"bg-verified objects", "server.bg_verified"},
           {"bg timeouts (invalidated)", "server.bg_timeouts"},
           {"GET durability-flag hits", "server.get_durability_hits"},
           {"log-cleaning rounds", "server.cleanings"},
           {"objects migrated by cleaning", "server.cleaned_objects"}});
}

void print_client_stats(std::ostream& os,
                        const metrics::MetricsRegistry& registry) {
  section(os, "clients", registry,
          {{"PUTs", "client.puts"},
           {"GETs", "client.gets"},
           {"  pure one-sided", "client.gets_pure_rdma"},
           {"  via RPC path", "client.gets_rpc_path"},
           {"version re-reads", "client.version_rereads"},
           {"client CRC checks", "client.client_crc_checks"},
           {"retries", "client.retries"},
           {"give-ups", "client.giveups"},
           {"pure-read rate", "client.gets_pure_rdma", "client.gets"}});
  // Adaptive-read counters exist only on clients with the feature enabled
  // (stores/adaptive.hpp); skip the whole section otherwise so default
  // reports are unchanged. spec_hits is the probe because the telemetry
  // sampler creates the spec_pairs and hedge series on every client.
  if (registry.find_counter("read.adaptive.spec_hits") != nullptr) {
    section(os, "adaptive read", registry,
            {{"speculative pair READs", "read.adaptive.spec_pairs"},
             {"hedged locate RPCs", "read.adaptive.hedges"},
             {"speculation hold rate", "read.adaptive.spec_hits",
              "read.adaptive.spec_pairs"},
             {"hedge waste rate", "read.adaptive.hedges_wasted",
              "read.adaptive.hedges"}});
  }
}

void print_arena_stats(std::ostream& os,
                       const metrics::MetricsRegistry& registry) {
  section(os, "nvm arena", registry,
          {{"CPU stores / bytes", "arena.cpu_stores"},
           {"  store bytes", "arena.cpu_store_bytes"},
           {"CPU loads", "arena.cpu_loads"},
           {"flush calls / lines", "arena.flushes"},
           {"  flushed lines", "arena.flushed_lines"},
           {"inbound DMA writes", "arena.dma_writes"},
           {"  DMA bytes", "arena.dma_bytes"},
           {"crashes injected", "arena.crashes"}});
}

void print_qp_stats(std::ostream& os,
                    const metrics::MetricsRegistry& registry) {
  section(os, "queue pairs", registry,
          {{"READs", "qp.reads"},
           {"  read bytes", "qp.read_bytes"},
           {"WRITEs", "qp.writes"},
           {"  write bytes", "qp.write_bytes"},
           {"SENDs", "qp.sends"},
           {"  send bytes", "qp.send_bytes"},
           {"WRITE_WITH_IMMs", "qp.writes_with_imm"},
           {"CAS ops", "qp.cas_ops"},
           {"COMMITs", "qp.commits"}});
}

void print_latency_stats(std::ostream& os,
                         const metrics::MetricsRegistry& registry) {
  // The quantile columns, in one place: adding a column here changes
  // every histogram row (and nothing else).
  struct Quantile {
    const char* label;
    double q;
  };
  static constexpr Quantile kQuantiles[] = {
      {"p50", 0.5}, {"p95", 0.95}, {"p99", 0.99}};

  bool any = false;
  TextTable table{"latency quantiles (ns)"};
  std::vector<std::string> header{"histogram", "count", "mean"};
  for (const Quantile& q : kQuantiles) header.emplace_back(q.label);
  table.set_header(std::move(header));
  for (const auto& h : registry.histograms()) {
    any = true;
    std::vector<std::string> row{std::string{h.name},
                                 std::to_string(h.cell.count()),
                                 TextTable::num(h.cell.mean(), 1)};
    for (const Quantile& q : kQuantiles) {
      row.push_back(std::to_string(h.cell.percentile(q.q)));
    }
    table.add_row(std::move(row));
  }
  if (any) table.print(os);
}

void print_cluster_report(std::ostream& os,
                          const metrics::MetricsRegistry& registry) {
  print_server_stats(os, registry);
  print_client_stats(os, registry);
  print_arena_stats(os, registry);
  print_qp_stats(os, registry);
  print_latency_stats(os, registry);
}

void print_cluster_report(std::ostream& os, const StoreBase& store,
                          const metrics::MetricsRegistry& client_metrics) {
  metrics::MetricsRegistry merged;
  merged.merge_from(store.metrics());
  merged.merge_from(client_metrics);
  print_cluster_report(os, merged);
}

}  // namespace efac::stores
