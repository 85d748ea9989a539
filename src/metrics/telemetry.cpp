#include "metrics/telemetry.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/json_reader.hpp"
#include "common/json_writer.hpp"
#include "sim/simulator.hpp"

namespace efac::metrics {
namespace {

using json::append_double;
using json::append_escaped;
using json::append_u64;
using json::Parser;

constexpr std::string_view kTelemetrySchema = "efac.telemetry.v1";

}  // namespace

// ---------------------------------------------------------------- sampler

TelemetrySampler::TelemetrySampler(sim::Simulator& sim,
                                   std::string series_prefix)
    : series_prefix_(std::move(series_prefix)) {
  sim.watch_clock(kPeriodNs, alive_, [this](SimTime at) { sample(at); });
}

TelemetrySampler::~TelemetrySampler() { *alive_ = false; }

TelemetrySampler::SeriesState& TelemetrySampler::series_for(
    std::string_view name, SeriesKind kind) {
  std::string full = series_prefix_;
  full += name;
  const auto it = series_index_.find(full);
  if (it != series_index_.end()) {
    SeriesState& s = series_[it->second];
    EFAC_CHECK_MSG(s.kind == kind, "telemetry series \""
                                       << full
                                       << "\" registered with two kinds");
    return s;
  }
  series_.push_back(SeriesState{full, kind, {}, {}, {}});
  series_index_.emplace(std::move(full), series_.size() - 1);
  SeriesState& s = series_.back();
  // Backfill so every series stays tick-aligned even when a source shows
  // up after sampling began (e.g. a client created mid-run).
  const std::uint64_t have = std::min<std::uint64_t>(samples_, kCapacity);
  s.ring.assign(static_cast<std::size_t>(have), 0.0);
  return s;
}

void TelemetrySampler::add_counter_source(Owner owner, std::string_view name,
                                          const Counter& cell) {
  SeriesState& s = series_for(name, SeriesKind::kRate);
  // Baseline at the current value: a mid-run registration contributes
  // deltas from now on, not its whole history as one spike.
  s.counters.push_back(CounterSource{owner, &cell, cell.value()});
}

void TelemetrySampler::add_gauge_probe(Owner owner, std::string_view name,
                                       std::function<double()> probe) {
  SeriesState& s = series_for(name, SeriesKind::kGauge);
  s.gauges.push_back(GaugeProbe{owner, std::move(probe)});
}

void TelemetrySampler::drop_sources(Owner owner) {
  for (SeriesState& s : series_) {
    std::erase_if(s.counters,
                  [owner](const CounterSource& c) { return c.owner == owner; });
    std::erase_if(s.gauges,
                  [owner](const GaugeProbe& g) { return g.owner == owner; });
  }
}

std::uint64_t TelemetrySampler::dropped() const noexcept {
  return samples_ > kCapacity ? samples_ - kCapacity : 0;
}

void TelemetrySampler::sample(SimTime at) {
  if (samples_ == 0) first_tick_ns_ = at;
  ++samples_;
  for (SeriesState& s : series_) {
    double point = 0.0;
    if (s.kind == SeriesKind::kRate) {
      std::uint64_t delta = 0;
      for (CounterSource& src : s.counters) {
        const std::uint64_t now_value = src.cell->value();
        // A registry reset() between phases rewinds cells; restart the
        // baseline instead of producing a wrapped-around mega-delta.
        delta += now_value >= src.last ? now_value - src.last : now_value;
        src.last = now_value;
      }
      point = static_cast<double>(delta);
    } else {
      for (const GaugeProbe& g : s.gauges) point += g.probe();
    }
    s.ring.push_back(point);
    if (s.ring.size() > kCapacity) s.ring.pop_front();
  }
}

TelemetrySnapshot TelemetrySampler::snapshot(std::string label) const {
  TelemetrySnapshot snap;
  snap.label = std::move(label);
  snap.period_ns = kPeriodNs;
  snap.samples = samples_;
  snap.dropped = dropped();
  snap.start_ns =
      samples_ == 0 ? 0 : first_tick_ns_ + snap.dropped * kPeriodNs;
  for (const SeriesState& s : series_) {
    snap.series.push_back(TelemetrySnapshot::Series{
        s.name, s.kind, {s.ring.begin(), s.ring.end()}});
  }
  return snap;
}

// ------------------------------------------------------------------ export

std::string to_telemetry_json(const std::vector<TelemetrySnapshot>& snapshots,
                              std::string_view figure) {
  std::string out;
  out += "{\n  \"schema\": ";
  append_escaped(out, kTelemetrySchema);
  out += ",\n  \"figure\": ";
  append_escaped(out, figure);
  out += ",\n  \"snapshots\": [";
  bool first_snap = true;
  for (const TelemetrySnapshot& snap : snapshots) {
    out += first_snap ? "\n    {" : ",\n    {";
    first_snap = false;
    out += "\n      \"label\": ";
    append_escaped(out, snap.label);
    out += ",\n      \"period_ns\": ";
    append_u64(out, snap.period_ns);
    out += ",\n      \"start_ns\": ";
    append_u64(out, snap.start_ns);
    out += ",\n      \"samples\": ";
    append_u64(out, snap.samples);
    out += ",\n      \"dropped\": ";
    append_u64(out, snap.dropped);
    out += ",\n      \"series\": {";
    bool first_series = true;
    for (const TelemetrySnapshot::Series& s : snap.series) {
      out += first_series ? "\n        " : ",\n        ";
      first_series = false;
      append_escaped(out, s.name);
      out += ": {\"kind\": ";
      append_escaped(out, s.kind == SeriesKind::kRate ? "rate" : "gauge");
      out += ", \"points\": [";
      bool first_point = true;
      for (const double p : s.points) {
        if (!first_point) out += ", ";
        first_point = false;
        append_double(out, p);
      }
      out += "]}";
    }
    out += first_series ? "}" : "\n      }";
    out += "\n    }";
  }
  out += first_snap ? "]" : "\n  ]";
  out += "\n}\n";
  return out;
}

// ------------------------------------------------------------------ import

namespace {

Status invalid(std::string message) {
  return Status{StatusCode::kInvalidArgument, std::move(message)};
}

/// Read a non-negative integral number into `out`.
bool parse_count(Parser& p, std::string_view what, std::uint64_t& out,
                 std::string& why) {
  const Parser::Number num = p.parse_number();
  if (p.failed() || !num.integral || num.value < 0) {
    why = std::string{what} + " is not a non-negative integer";
    return false;
  }
  out = static_cast<std::uint64_t>(num.value);
  return true;
}

bool parse_series_entry(Parser& p, const std::string& name,
                        TelemetrySnapshot::Series& s, std::string& why) {
  s.name = name;
  if (!p.expect('{')) {
    why = "series \"" + name + "\" is not an object";
    return false;
  }
  bool seen_kind = false;
  bool seen_points = false;
  if (!p.consume('}')) {
    do {
      const std::string key = p.parse_string();
      if (!p.expect(':')) break;
      if (key == "kind") {
        const std::string kind = p.parse_string();
        if (kind == "rate") {
          s.kind = SeriesKind::kRate;
        } else if (kind == "gauge") {
          s.kind = SeriesKind::kGauge;
        } else {
          why = "series \"" + name + "\" has unknown kind \"" + kind + "\"";
          return false;
        }
        seen_kind = true;
      } else if (key == "points") {
        if (!p.expect('[')) {
          why = "series \"" + name + "\" points is not an array";
          return false;
        }
        if (!p.consume(']')) {
          do {
            s.points.push_back(p.parse_number().value);
            if (p.failed()) break;
          } while (p.consume(','));
          if (!p.expect(']')) {
            why = "series \"" + name + "\" points array is malformed";
            return false;
          }
        }
        seen_points = true;
      } else {
        p.skip_value();
      }
      if (p.failed()) break;
    } while (p.consume(','));
    if (!p.expect('}')) {
      why = "series \"" + name + "\" is malformed";
      return false;
    }
  }
  if (p.failed()) {
    why = "series parse error: " + p.error;
    return false;
  }
  if (!seen_kind || !seen_points) {
    why = "series \"" + name + "\" is missing kind or points";
    return false;
  }
  return true;
}

bool parse_snapshot(Parser& p, TelemetrySnapshot& snap, std::string& why) {
  if (!p.expect('{')) {
    why = "snapshot is not an object";
    return false;
  }
  bool seen_label = false;
  bool seen_period = false;
  bool seen_samples = false;
  bool seen_series = false;
  if (!p.consume('}')) {
    do {
      const std::string key = p.parse_string();
      if (!p.expect(':')) break;
      if (key == "label") {
        snap.label = p.parse_string();
        seen_label = true;
      } else if (key == "period_ns") {
        if (!parse_count(p, "period_ns", snap.period_ns, why)) return false;
        if (snap.period_ns == 0) {
          why = "period_ns must be positive";
          return false;
        }
        seen_period = true;
      } else if (key == "start_ns") {
        if (!parse_count(p, "start_ns", snap.start_ns, why)) return false;
      } else if (key == "samples") {
        if (!parse_count(p, "samples", snap.samples, why)) return false;
        seen_samples = true;
      } else if (key == "dropped") {
        if (!parse_count(p, "dropped", snap.dropped, why)) return false;
      } else if (key == "series") {
        if (!p.expect('{')) {
          why = "series is not an object";
          return false;
        }
        if (!p.consume('}')) {
          do {
            const std::string name = p.parse_string();
            if (!p.expect(':')) break;
            TelemetrySnapshot::Series s;
            if (!parse_series_entry(p, name, s, why)) return false;
            snap.series.push_back(std::move(s));
          } while (p.consume(','));
          if (!p.expect('}')) {
            why = "series object is malformed";
            return false;
          }
        }
        seen_series = true;
      } else {
        p.skip_value();
      }
      if (p.failed()) break;
    } while (p.consume(','));
    if (!p.expect('}')) {
      why = "snapshot object is malformed";
      return false;
    }
  }
  if (p.failed()) {
    why = "snapshot parse error: " + p.error;
    return false;
  }
  if (!seen_label || !seen_period || !seen_samples || !seen_series) {
    why = "snapshot is missing a required field";
    return false;
  }
  // Accounting must be self-consistent: retained points never exceed the
  // ticks taken, and dropped never exceeds samples.
  if (snap.dropped > snap.samples) {
    why = "snapshot drops more samples than it took";
    return false;
  }
  for (const TelemetrySnapshot::Series& s : snap.series) {
    if (s.points.size() > snap.samples - snap.dropped) {
      why = "series \"" + s.name + "\" has more points than retained samples";
      return false;
    }
  }
  return true;
}

}  // namespace

Expected<std::vector<TelemetrySnapshot>> parse_telemetry_json(
    std::string_view doc) {
  Parser p{doc, 0, {}};
  if (!p.expect('{')) return invalid("document is not a JSON object");

  bool seen_schema = false;
  bool seen_figure = false;
  bool seen_snapshots = false;
  std::vector<TelemetrySnapshot> out;

  if (!p.consume('}')) {
    do {
      const std::string key = p.parse_string();
      if (p.failed()) break;
      if (!p.expect(':')) break;
      if (key == "schema") {
        const std::string value = p.parse_string();
        if (value != kTelemetrySchema) {
          return invalid("schema is \"" + value + "\", expected \"" +
                         std::string{kTelemetrySchema} + "\"");
        }
        seen_schema = true;
      } else if (key == "figure") {
        if (p.parse_string().empty()) return invalid("figure name is empty");
        seen_figure = true;
      } else if (key == "snapshots") {
        if (!p.expect('[')) return invalid("snapshots is not an array");
        if (!p.consume(']')) {
          do {
            TelemetrySnapshot snap;
            std::string why;
            if (!parse_snapshot(p, snap, why)) return invalid(std::move(why));
            out.push_back(std::move(snap));
          } while (p.consume(','));
          if (!p.expect(']')) return invalid("snapshots array is malformed");
        }
        seen_snapshots = true;
      } else {
        p.skip_value();
      }
      if (p.failed()) break;
    } while (p.consume(','));
    if (!p.failed()) p.expect('}');
  }
  if (p.failed()) return invalid("parse error: " + p.error);
  p.skip_ws();
  if (p.pos != doc.size()) return invalid("trailing data after document");

  if (!seen_schema) return invalid("missing \"schema\"");
  if (!seen_figure) return invalid("missing \"figure\"");
  if (!seen_snapshots) return invalid("missing \"snapshots\"");
  return out;
}

Status validate_telemetry_json(std::string_view doc) {
  return parse_telemetry_json(doc).status();
}

}  // namespace efac::metrics
