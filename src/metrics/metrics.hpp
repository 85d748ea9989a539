// Unified metrics layer: named counters, gauges and log-scale latency
// histograms behind a single registry.
//
// Components resolve their instruments ONCE at construction and keep cheap
// references (a Counter& increment is a single add on a registry-owned
// cell), so hot paths never pay a name lookup. The registry owns every
// cell; instrument references stay valid for the registry's lifetime —
// storage is a std::deque, so growing the registry never moves existing
// cells.
//
// The registry is instantiable: stores, clients, arenas and queue pairs
// each own (or borrow) one, which keeps per-component assertions exact and
// lets benches run many clusters in one process. Registries compose with
// merge_from(other, "prefix/"), which is how bench binaries fold per-run
// registries into the process-wide export.
//
// Naming convention (see docs/OBSERVABILITY.md): dot-separated lowercase
// within a component ("client.puts", "arena.flushes", "span.put.total");
// slash-separated run prefixes added at merge time ("put/Erda/4KB/...").
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>

#include "common/histogram.hpp"

namespace efac::metrics {

/// Monotonic counter cell. Owned by a registry; components hold `Counter&`.
class Counter {
 public:
  Counter() = default;

  Counter& operator++() noexcept {
    ++value_;
    return *this;
  }
  Counter& operator+=(std::uint64_t delta) noexcept {
    value_ += delta;
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  /// Counters read like the plain integers they replaced.
  operator std::uint64_t() const noexcept { return value_; }

 private:
  friend class MetricsRegistry;
  std::uint64_t value_ = 0;
};

/// Last-write-wins scalar (ratios, sizes, configuration echoes).
class Gauge {
 public:
  Gauge() = default;

  void set(double value) noexcept { value_ = value; }
  void add(double delta) noexcept { value_ += delta; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Registry of named instruments. Lookup is get-or-create; iteration is in
/// registration order. Copyable (a copy is a point-in-time snapshot whose
/// cells are independent of the original's).
class MetricsRegistry {
 public:
  struct NamedCounter {
    std::string name;
    Counter cell;
  };
  struct NamedGauge {
    std::string name;
    Gauge cell;
  };
  struct NamedHistogram {
    std::string name;
    Histogram cell;
  };

  MetricsRegistry() = default;

  /// Get-or-create. The returned reference stays valid as long as this
  /// registry lives (deque storage: growth never relocates cells).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Lookup without creating; nullptr if the name is unknown.
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  /// Registration-order views for exporters and reports.
  [[nodiscard]] const std::deque<NamedCounter>& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::deque<NamedGauge>& gauges() const noexcept {
    return gauges_;
  }
  [[nodiscard]] const std::deque<NamedHistogram>& histograms() const noexcept {
    return histograms_;
  }

  /// Fold `other` into this registry under an optional name prefix:
  /// counters add, gauges overwrite, histograms merge bucket-wise.
  void merge_from(const MetricsRegistry& other, std::string_view prefix = {});

  /// Zero every instrument, keeping names and handles alive.
  void reset();

  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

 private:
  // Cells live in deques (stable addresses); the maps index by name.
  // std::less<> enables string_view lookups without a temporary string.
  std::deque<NamedCounter> counters_;
  std::deque<NamedGauge> gauges_;
  std::deque<NamedHistogram> histograms_;
  std::map<std::string, std::size_t, std::less<>> counter_index_;
  std::map<std::string, std::size_t, std::less<>> gauge_index_;
  std::map<std::string, std::size_t, std::less<>> histogram_index_;
};

}  // namespace efac::metrics
