#include "metrics/json.hpp"

#include <ostream>

#include "common/json_reader.hpp"
#include "common/json_writer.hpp"

namespace efac::metrics {
namespace {

using json::append_double;
using json::append_escaped;
using json::append_u64;
using json::Parser;

// --------------------------------------------------------------- validator
//
// The recursive-descent JSON reader lives in common/json_reader.hpp (it is
// shared with the Chrome trace-export validator); this file keeps only the
// bench-schema rules.

constexpr std::string_view kSchemaName = "efac.bench.v1";
constexpr std::string_view kHistogramFields[] = {
    "count", "sum", "min", "max", "mean", "p50", "p90", "p95", "p99"};

Status invalid(std::string message) {
  return Status{StatusCode::kInvalidArgument, std::move(message)};
}

/// Validate one histogram object: every required field present and numeric.
bool check_histogram(Parser& p, const std::string& name, std::string& why) {
  if (!p.expect('{')) {
    why = "histogram \"" + name + "\" is not an object";
    return false;
  }
  bool seen[std::size(kHistogramFields)] = {};
  if (!p.consume('}')) {
    do {
      const std::string field = p.parse_string();
      if (!p.expect(':')) break;
      const Parser::Number num = p.parse_number();
      if (p.failed()) break;
      for (std::size_t i = 0; i < std::size(kHistogramFields); ++i) {
        if (field == kHistogramFields[i]) {
          seen[i] = true;
          // `mean` is a double; everything else must be integral.
          if (field != "mean" && !num.integral) {
            why = "histogram \"" + name + "\" field \"" + field +
                  "\" is not an integer";
            return false;
          }
        }
      }
    } while (p.consume(','));
    if (!p.expect('}')) {
      why = "histogram \"" + name + "\" is malformed";
      return false;
    }
  }
  for (std::size_t i = 0; i < std::size(kHistogramFields); ++i) {
    if (!seen[i]) {
      why = "histogram \"" + name + "\" is missing field \"" +
            std::string{kHistogramFields[i]} + "\"";
      return false;
    }
  }
  return true;
}

}  // namespace

void write_json(std::ostream& os, const MetricsRegistry& registry,
                std::string_view figure) {
  os << to_json(registry, figure);
}

std::string to_json(const MetricsRegistry& registry, std::string_view figure) {
  std::string out;
  out += "{\n  ";
  append_escaped(out, "schema");
  out += ": ";
  append_escaped(out, kSchemaName);
  out += ",\n  ";
  append_escaped(out, "figure");
  out += ": ";
  append_escaped(out, figure);

  out += ",\n  \"counters\": {";
  bool first = true;
  for (const auto& c : registry.counters()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_escaped(out, c.name);
    out += ": ";
    append_u64(out, c.cell.value());
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"gauges\": {";
  first = true;
  for (const auto& g : registry.gauges()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_escaped(out, g.name);
    out += ": ";
    append_double(out, g.cell.value());
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"histograms\": {";
  first = true;
  for (const auto& h : registry.histograms()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_escaped(out, h.name);
    out += ": {\"count\": ";
    append_u64(out, h.cell.count());
    out += ", \"sum\": ";
    append_u64(out, h.cell.sum());
    out += ", \"min\": ";
    append_u64(out, h.cell.min());
    out += ", \"max\": ";
    append_u64(out, h.cell.max());
    out += ", \"mean\": ";
    append_double(out, h.cell.mean());
    out += ", \"p50\": ";
    append_u64(out, h.cell.percentile(0.5));
    out += ", \"p90\": ";
    append_u64(out, h.cell.percentile(0.9));
    out += ", \"p95\": ";
    append_u64(out, h.cell.percentile(0.95));
    out += ", \"p99\": ";
    append_u64(out, h.cell.percentile(0.99));
    out += "}";
  }
  out += first ? "}" : "\n  }";

  out += "\n}\n";
  return out;
}

Status validate_bench_json(std::string_view doc) {
  Parser p{doc, 0, {}};
  if (!p.expect('{')) return invalid("document is not a JSON object");

  bool seen_schema = false;
  bool seen_figure = false;
  bool seen_counters = false;
  bool seen_gauges = false;
  bool seen_histograms = false;

  if (!p.consume('}')) {
    do {
      const std::string key = p.parse_string();
      if (p.failed()) break;
      if (!p.expect(':')) break;
      if (key == "schema") {
        const std::string value = p.parse_string();
        if (value != kSchemaName) {
          return invalid("schema is \"" + value + "\", expected \"" +
                         std::string{kSchemaName} + "\"");
        }
        seen_schema = true;
      } else if (key == "figure") {
        const std::string value = p.parse_string();
        if (value.empty()) return invalid("figure name is empty");
        seen_figure = true;
      } else if (key == "counters") {
        if (!p.expect('{')) return invalid("counters is not an object");
        if (!p.consume('}')) {
          do {
            const std::string name = p.parse_string();
            if (!p.expect(':')) break;
            const Parser::Number num = p.parse_number();
            if (p.failed()) break;
            if (!num.integral || num.value < 0) {
              return invalid("counter \"" + name +
                             "\" is not a non-negative integer");
            }
          } while (p.consume(','));
          if (!p.expect('}')) return invalid("counters object is malformed");
        }
        seen_counters = true;
      } else if (key == "gauges") {
        if (!p.expect('{')) return invalid("gauges is not an object");
        if (!p.consume('}')) {
          do {
            p.parse_string();
            if (!p.expect(':')) break;
            p.parse_number();
            if (p.failed()) break;
          } while (p.consume(','));
          if (!p.expect('}')) return invalid("gauges object is malformed");
        }
        seen_gauges = true;
      } else if (key == "histograms") {
        if (!p.expect('{')) return invalid("histograms is not an object");
        if (!p.consume('}')) {
          do {
            const std::string name = p.parse_string();
            if (!p.expect(':')) break;
            std::string why;
            if (!check_histogram(p, name, why)) return invalid(std::move(why));
          } while (p.consume(','));
          if (!p.expect('}')) return invalid("histograms object is malformed");
        }
        seen_histograms = true;
      } else {
        // Unknown top-level keys are allowed for forward compatibility.
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
  if (!seen_counters) return invalid("missing \"counters\"");
  if (!seen_gauges) return invalid("missing \"gauges\"");
  if (!seen_histograms) return invalid("missing \"histograms\"");
  return Status::ok();
}

}  // namespace efac::metrics
