// JSON writer primitives shared by every exporter that builds a document
// by appending to a string: the bench export (metrics/json.cpp), the
// telemetry export (metrics/telemetry.cpp) and the Chrome trace export
// (trace/chrome.cpp). The reading side is common/json_reader.hpp.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace efac::json {

/// `text` as a quoted JSON string: quotes, backslashes, newlines and tabs
/// escaped by name, other control bytes as \u00XX.
inline void append_escaped(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// `value` with 9 significant digits; a non-finite value is written as 0.
inline void append_double(std::string& out, double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  out += buf;
}

inline void append_u64(std::string& out, std::uint64_t value) {
  out += std::to_string(value);
}

}  // namespace efac::json
