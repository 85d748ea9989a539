#include "trace/chrome.hpp"

#include <cstdio>
#include <map>
#include <ostream>

#include "common/json_reader.hpp"
#include "common/json_writer.hpp"

namespace efac::trace {
namespace {

using json::append_escaped;

/// Virtual ns → trace-event µs, with enough digits to keep ns resolution.
void append_us(std::string& out, std::uint64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buf;
}

struct EventWriter {
  std::string& out;
  bool first = true;

  void open(const char* ph, std::string_view name, std::string_view cat,
            std::size_t pid, std::uint64_t tid, std::uint64_t ts_ns) {
    out += first ? "\n    {" : ",\n    {";
    first = false;
    out += "\"ph\": \"";
    out += ph;
    out += "\", \"name\": ";
    append_escaped(out, name);
    out += ", \"cat\": \"";
    out += cat;
    out += "\", \"pid\": ";
    out += std::to_string(pid);
    out += ", \"tid\": ";
    out += std::to_string(tid);
    out += ", \"ts\": ";
    append_us(out, ts_ns);
  }
  void close() { out += '}'; }
};

/// Flow ids must be unique per causal chain: RPC flows key on
/// (qp id, call id); durability flows key on the object offset with a
/// category-discriminating high bit.
std::uint64_t rpc_flow_id(std::uint64_t call_id, std::uint64_t qp_id) {
  return (qp_id << 40) ^ call_id;
}
std::uint64_t durability_flow_id(std::uint64_t object_off) {
  return (1ULL << 63) | object_off;
}

void append_snapshot(std::string& out, const EventLog::Snapshot& snap,
                     std::size_t pid, EventWriter& w) {
  // Process / thread naming metadata.
  w.open("M", "process_name", "__metadata", pid, 0, 0);
  out += ", \"args\": {\"name\": ";
  append_escaped(out, snap.label.empty() ? "efac trace" : snap.label);
  out += "}";
  w.close();
  for (std::size_t t = 0; t < snap.tracks.size(); ++t) {
    w.open("M", "thread_name", "__metadata", pid, t + 1, 0);
    out += ", \"args\": {\"name\": ";
    append_escaped(out, snap.tracks[t]);
    out += "}";
    w.close();
  }

  // Pair op begin/end per (track, op) to emit complete slices.
  std::map<std::uint64_t, const Event*> open_ops;
  for (const Event& e : snap.events) {
    const auto type = static_cast<EventType>(e.type);
    const std::uint64_t tid = e.track + 1u;
    switch (type) {
      case EventType::kOpBegin:
        open_ops[(static_cast<std::uint64_t>(e.track) << 32) | e.op] = &e;
        break;
      case EventType::kOpEnd: {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(e.track) << 32) | e.op;
        const auto it = open_ops.find(key);
        if (it == open_ops.end()) break;  // begin fell off the ring
        const Event& begin = *it->second;
        const char* name = e.aux < 3 ? kOpKindNames[e.aux] : "OP";
        w.open("X", name, "op", pid, tid, begin.t);
        out += ", \"dur\": ";
        append_us(out, e.t - begin.t);
        out += ", \"args\": {\"op\": ";
        out += std::to_string(e.op);
        out += ", \"status\": ";
        out += std::to_string(e.a);
        out += "}";
        w.close();
        open_ops.erase(it);
        break;
      }
      case EventType::kQpVerb: {
        const char* name =
            e.aux < static_cast<std::uint8_t>(Verb::kVerbCount)
                ? kVerbNames[e.aux]
                : "VERB";
        w.open("X", name, "qp", pid, tid, e.t);
        out += ", \"dur\": ";
        append_us(out, e.a > e.t ? e.a - e.t : 0);
        out += ", \"args\": {\"bytes\": ";
        out += std::to_string(e.b);
        out += ", \"op\": ";
        out += std::to_string(e.op);
        out += "}";
        w.close();
        break;
      }
      case EventType::kRpcIssue:
      case EventType::kRpcDeliver: {
        const bool issue = type == EventType::kRpcIssue;
        w.open("i", issue ? "rpc_issue" : "rpc_deliver", "rpc", pid, tid,
               e.t);
        out += ", \"s\": \"t\", \"args\": {\"call\": ";
        out += std::to_string(e.a);
        out += ", \"qp\": ";
        out += std::to_string(e.b);
        out += ", \"opcode\": ";
        out += std::to_string(e.aux);
        out += "}";
        w.close();
        w.open(issue ? "s" : "f", "rpc", "rpc", pid, tid, e.t);
        if (!issue) out += ", \"bp\": \"e\"";
        out += ", \"id\": ";
        out += std::to_string(rpc_flow_id(e.a, e.b));
        w.close();
        break;
      }
      case EventType::kObjBind:
      case EventType::kFlagSet: {
        const bool bind = type == EventType::kObjBind;
        w.open("i", bind ? "obj_bind" : "flag_set", "durability", pid, tid,
               e.t);
        out += ", \"s\": \"t\", \"args\": {\"object_off\": ";
        out += std::to_string(e.a);
        out += "}";
        w.close();
        w.open(bind ? "s" : "f", "durability", "durability", pid, tid, e.t);
        if (!bind) out += ", \"bp\": \"e\"";
        out += ", \"id\": ";
        out += std::to_string(durability_flow_id(e.a));
        w.close();
        break;
      }
      case EventType::kGetPath: {
        w.open("i", "get_path", "client", pid, tid, e.t);
        out += ", \"s\": \"t\", \"args\": {\"path\": ";
        append_escaped(
            out, e.aux < static_cast<std::uint8_t>(GetPath::kPathCount)
                     ? kGetPathNames[e.aux]
                     : "?");
        out += ", \"op\": ";
        out += std::to_string(e.op);
        out += "}";
        w.close();
        break;
      }
      default: {
        const char* name =
            e.type < static_cast<std::uint8_t>(EventType::kCount)
                ? kEventNames[e.type]
                : "event";
        w.open("i", name, "event", pid, tid, e.t);
        out += ", \"s\": \"t\", \"args\": {\"a\": ";
        out += std::to_string(e.a);
        out += ", \"b\": ";
        out += std::to_string(e.b);
        out += ", \"aux\": ";
        out += std::to_string(e.aux);
        out += ", \"op\": ";
        out += std::to_string(e.op);
        out += "}";
        w.close();
        break;
      }
    }
  }
  // Ops still open at snapshot time: record them as instants so the
  // viewer shows the unfinished work instead of silently dropping it.
  for (const auto& [key, begin] : open_ops) {
    (void)key;
    const char* name = begin->aux < 3 ? kOpKindNames[begin->aux] : "OP";
    w.open("i", name, "op.unfinished", pid, begin->track + 1u, begin->t);
    out += ", \"s\": \"t\", \"args\": {\"op\": ";
    out += std::to_string(begin->op);
    out += "}";
    w.close();
  }
}

Status invalid(std::string message) {
  return Status{StatusCode::kInvalidArgument, std::move(message)};
}

// ------------------------------------------------------------ binary I/O

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out += static_cast<char>((v >> (8 * i)) & 0xff);
  }
}
void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out += static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

struct BinReader {
  std::string_view data;
  std::size_t pos = 0;
  bool ok = true;

  bool have(std::size_t n) {
    if (data.size() - pos < n) ok = false;
    return ok;
  }
  std::uint32_t u32() {
    if (!have(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data[pos + static_cast<std::size_t>(i)]))
           << (8 * i);
    }
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!have(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data[pos + static_cast<std::size_t>(i)]))
           << (8 * i);
    }
    pos += 8;
    return v;
  }
  std::string str() {
    const std::uint32_t len = u32();
    if (!have(len)) return {};
    std::string s{data.substr(pos, len)};
    pos += len;
    return s;
  }
};

constexpr char kMagic[4] = {'E', 'F', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;

}  // namespace

std::string to_chrome_trace(const std::vector<EventLog::Snapshot>& snapshots) {
  std::string out;
  out += "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [";
  EventWriter w{out};
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    append_snapshot(out, snapshots[i], i + 1, w);
  }
  out += w.first ? "]" : "\n  ]";
  out += "\n}\n";
  return out;
}

void write_chrome_trace(std::ostream& os,
                        const std::vector<EventLog::Snapshot>& snapshots) {
  os << to_chrome_trace(snapshots);
}

Status validate_chrome_trace(std::string_view doc) {
  json::Parser p{doc, 0, {}};
  if (!p.expect('{')) return invalid("document is not a JSON object");
  bool seen_events = false;
  if (!p.consume('}')) {
    do {
      const std::string key = p.parse_string();
      if (p.failed()) break;
      if (!p.expect(':')) break;
      if (key == "traceEvents") {
        if (!p.expect('[')) return invalid("traceEvents is not an array");
        seen_events = true;
        std::size_t index = 0;
        if (!p.consume(']')) {
          do {
            if (!p.expect('{')) {
              return invalid("traceEvents[" + std::to_string(index) +
                             "] is not an object");
            }
            std::string ph;
            bool seen_name = false;
            bool seen_pid = false;
            bool seen_tid = false;
            bool seen_ts = false;
            bool seen_dur = false;
            bool seen_id = false;
            if (!p.consume('}')) {
              do {
                const std::string field = p.parse_string();
                if (!p.expect(':')) break;
                if (field == "ph") {
                  ph = p.parse_string();
                } else if (field == "name" || field == "cat") {
                  p.parse_string();
                  seen_name = seen_name || field == "name";
                } else if (field == "pid" || field == "tid" ||
                           field == "ts" || field == "dur" ||
                           field == "id") {
                  const json::Parser::Number num = p.parse_number();
                  if (p.failed()) break;
                  if ((field == "pid" || field == "tid") && !num.integral) {
                    return invalid("traceEvents[" + std::to_string(index) +
                                   "]." + field + " is not an integer");
                  }
                  seen_pid = seen_pid || field == "pid";
                  seen_tid = seen_tid || field == "tid";
                  seen_ts = seen_ts || field == "ts";
                  seen_dur = seen_dur || field == "dur";
                  seen_id = seen_id || field == "id";
                } else {
                  p.skip_value();
                }
                if (p.failed()) break;
              } while (p.consume(','));
              if (!p.expect('}')) {
                return invalid("traceEvents[" + std::to_string(index) +
                               "] is malformed");
              }
            }
            if (p.failed()) break;
            const std::string at =
                "traceEvents[" + std::to_string(index) + "]";
            if (ph.size() != 1 ||
                std::string_view{"XisfMbe"}.find(ph[0]) ==
                    std::string_view::npos) {
              return invalid(at + " has bad \"ph\"");
            }
            if (!seen_name) return invalid(at + " is missing \"name\"");
            if (!seen_pid) return invalid(at + " is missing \"pid\"");
            if (ph != "M" && !seen_tid) {
              return invalid(at + " is missing \"tid\"");
            }
            if (ph != "M" && !seen_ts) {
              return invalid(at + " is missing \"ts\"");
            }
            if (ph == "X" && !seen_dur) {
              return invalid(at + " is missing \"dur\"");
            }
            if ((ph == "s" || ph == "f") && !seen_id) {
              return invalid(at + " is missing flow \"id\"");
            }
            ++index;
          } while (p.consume(','));
          if (!p.expect(']')) return invalid("traceEvents array malformed");
        }
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
  if (!seen_events) return invalid("missing \"traceEvents\"");
  return Status::ok();
}

std::string to_binary(const std::vector<EventLog::Snapshot>& snapshots) {
  std::string out;
  out.append(kMagic, sizeof kMagic);
  put_u32(out, kVersion);
  put_u32(out, static_cast<std::uint32_t>(snapshots.size()));
  for (const EventLog::Snapshot& snap : snapshots) {
    put_u32(out, static_cast<std::uint32_t>(snap.label.size()));
    out += snap.label;
    put_u32(out, static_cast<std::uint32_t>(snap.tracks.size()));
    for (const std::string& t : snap.tracks) {
      put_u32(out, static_cast<std::uint32_t>(t.size()));
      out += t;
    }
    put_u64(out, snap.dropped);
    put_u64(out, snap.events.size());
    for (const Event& e : snap.events) {
      put_u64(out, e.t);
      put_u64(out, e.a);
      put_u64(out, e.b);
      put_u32(out, e.op);
      put_u32(out, (static_cast<std::uint32_t>(e.aux) << 24) |
                       (static_cast<std::uint32_t>(e.type) << 16) | e.track);
    }
  }
  return out;
}

void write_binary(std::ostream& os,
                  const std::vector<EventLog::Snapshot>& snapshots) {
  const std::string blob = to_binary(snapshots);
  os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
}

Status read_binary(std::string_view data, std::vector<EventLog::Snapshot>* out) {
  // Contract (locked by FlightRecorder.RejectedDumpLeavesOutputEmpty and
  // the eftr_fuzz target): on ANY error *out is left empty — a torn
  // half-parsed snapshot must never reach trace_inspect's attribution.
  out->clear();
  BinReader r{data};
  if (data.size() < 12 || data.compare(0, 4, kMagic, 4) != 0) {
    return invalid("not an EFTR trace dump");
  }
  r.pos = 4;
  const std::uint32_t version = r.u32();
  if (version != kVersion) {
    return invalid("unsupported EFTR version " + std::to_string(version));
  }
  const std::uint32_t snap_count = r.u32();
  for (std::uint32_t s = 0; s < snap_count && r.ok; ++s) {
    EventLog::Snapshot snap;
    snap.label = r.str();
    const std::uint32_t track_count = r.u32();
    for (std::uint32_t t = 0; t < track_count && r.ok; ++t) {
      snap.tracks.push_back(r.str());
    }
    snap.dropped = r.u64();
    const std::uint64_t event_count = r.u64();
    if (!r.ok || (data.size() - r.pos) / 32 < event_count) {
      out->clear();
      return invalid("truncated EFTR dump");
    }
    snap.events.reserve(event_count);
    for (std::uint64_t i = 0; i < event_count; ++i) {
      Event e;
      e.t = r.u64();
      e.a = r.u64();
      e.b = r.u64();
      e.op = r.u32();
      const std::uint32_t packed = r.u32();
      e.track = static_cast<std::uint16_t>(packed & 0xffff);
      e.type = static_cast<std::uint8_t>((packed >> 16) & 0xff);
      e.aux = static_cast<std::uint8_t>(packed >> 24);
      snap.events.push_back(e);
    }
    if (!r.ok) break;  // don't surface the torn snapshot
    out->push_back(std::move(snap));
  }
  if (!r.ok) {
    out->clear();
    return invalid("truncated EFTR dump");
  }
  if (r.pos != data.size()) {
    out->clear();
    return invalid("trailing data after EFTR dump");
  }
  return Status::ok();
}

}  // namespace efac::trace
