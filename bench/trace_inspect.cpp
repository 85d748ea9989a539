// Flight-recorder inspector: schema validation and tail-latency
// attribution over the exports the bench binaries write with
// --trace-out=<path>.
//
//   trace_inspect validate <trace.json>
//       Golden-schema check of the Chrome trace-event export (the same
//       validator bench_main runs before writing).
//
//   trace_inspect explain [--slowest=K] <trace.bin>
//       Read the compact binary dump, rank completed ops by latency, and
//       for the K slowest print an attribution line (dominant phase:
//       one-sided verb time vs retry backoff vs rpc/server wait) plus the
//       full causal event chain — including joined server-side events
//       (RPC delivery by call id, verifier scan/flush/durability-flag by
//       object offset) and, for GETs, which path the read took and why it
//       fell back to RPC.
//
//   trace_inspect timeline [--perfetto=<out.json>] <TELEM.json>
//       Read a bench's TELEM_<figure>.json telemetry export
//       (efac.telemetry.v1), print a per-snapshot summary table of every
//       sampled series (kind, points, min/max/mean/last), and optionally
//       re-emit the series as Chrome/Perfetto counter tracks ("ph":"C") for
//       timeline rendering in the UI.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "metrics/telemetry.hpp"
#include "trace/chrome.hpp"
#include "trace/event_log.hpp"

namespace efac::trace {
namespace {

/// One completed client op reassembled from a snapshot: its lifecycle
/// bounds plus every event carrying its causal id.
struct OpRecord {
  const EventLog::Snapshot* snap = nullptr;
  std::uint32_t id = 0;
  OpKind kind = OpKind::kPut;
  bool has_begin = false;
  bool has_end = false;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t status = 0;
  std::vector<Event> events;  ///< own events, emission order
};

std::string us(std::uint64_t ns) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  os << static_cast<double>(ns) / 1000.0 << "us";
  return os.str();
}

const char* track_name(const EventLog::Snapshot& snap, std::uint16_t track) {
  return track < snap.tracks.size() ? snap.tracks[track].c_str() : "?";
}

const char* get_path_name(std::uint8_t aux) {
  return aux < static_cast<std::uint8_t>(GetPath::kPathCount)
             ? kGetPathNames[aux]
             : "?";
}

/// Render one event, timestamped relative to the op's begin.
std::string render_event(const EventLog::Snapshot& snap, const Event& ev,
                         std::uint64_t begin, bool joined) {
  std::ostringstream os;
  os << "  +" << us(ev.t >= begin ? ev.t - begin : 0);
  os << "  " << track_name(snap, ev.track) << "  ";
  const auto type = static_cast<EventType>(ev.type);
  os << kEventNames[ev.type];
  switch (type) {
    case EventType::kOpBegin:
      os << " " << kOpKindNames[ev.aux];
      break;
    case EventType::kOpEnd:
      os << " " << kOpKindNames[ev.aux] << " status="
         << to_string(static_cast<StatusCode>(ev.a));
      break;
    case EventType::kRpcIssue:
      os << " opcode=" << static_cast<int>(ev.aux) << " call=" << ev.a
         << " qp=" << ev.b;
      break;
    case EventType::kRpcDeliver:
      os << " call=" << ev.a << " from-qp=" << ev.b;
      break;
    case EventType::kQpVerb:
      os << " " << kVerbNames[ev.aux] << " " << ev.b << "B";
      if (ev.a >= ev.t) os << " (completes +" << us(ev.a - begin) << ")";
      break;
    case EventType::kVerifyScan:
      os << " off=" << ev.a << " depth=" << ev.b;
      break;
    case EventType::kVerifyFlush:
      os << " off=" << ev.a << " " << ev.b << "B";
      break;
    case EventType::kFlagSet:
      os << " off=" << ev.a << "  <- object durable";
      break;
    case EventType::kVerifyTimeout:
      os << " off=" << ev.a << "  <- invalidated";
      break;
    case EventType::kGcCopy:
      os << " " << ev.a << " -> " << ev.b;
      break;
    case EventType::kGcSwitch:
      os << " stage=" << static_cast<int>(ev.aux);
      break;
    case EventType::kRetry:
      os << " attempt=" << ev.a << " after "
         << to_string(static_cast<StatusCode>(ev.b));
      break;
    case EventType::kBackoff:
      os << " " << us(ev.a) << " (attempt " << ev.b << ")";
      break;
    case EventType::kFault:
      os << " site=" << static_cast<int>(ev.aux) << " n=" << ev.a;
      break;
    case EventType::kGetPath:
      os << " [" << get_path_name(ev.aux) << "]";
      break;
    case EventType::kObjBind:
      os << " off=" << ev.a;
      break;
    default:
      break;
  }
  if (joined) os << "   (joined)";
  return os.str();
}

/// Total length of the union of [start, end) intervals.
std::uint64_t interval_union(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spans) {
  std::sort(spans.begin(), spans.end());
  std::uint64_t total = 0;
  std::uint64_t cur_start = 0;
  std::uint64_t cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : spans) {
    if (e <= s) continue;
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

/// Phase attribution for one op: one-sided verb coverage (interval union,
/// clipped to the op window), summed retry backoff, and the remainder —
/// time not explained by either, i.e. rpc/server wait plus client compute.
struct Phases {
  std::uint64_t one_sided = 0;
  std::uint64_t backoff = 0;
  std::uint64_t remainder = 0;
  bool used_rpc = false;
  const char* dominant = "";
};

Phases attribute(const OpRecord& op) {
  Phases ph;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  for (const Event& ev : op.events) {
    switch (static_cast<EventType>(ev.type)) {
      case EventType::kQpVerb:
        spans.emplace_back(std::max(ev.t, op.begin),
                           std::min(ev.a, op.end));
        break;
      case EventType::kBackoff:
        ph.backoff += ev.a;
        break;
      case EventType::kRpcIssue:
        ph.used_rpc = true;
        break;
      default:
        break;
    }
  }
  ph.one_sided = interval_union(std::move(spans));
  const std::uint64_t duration = op.end - op.begin;
  const std::uint64_t explained =
      std::min(duration, ph.one_sided + ph.backoff);
  ph.remainder = duration - explained;
  const char* wait_label = ph.used_rpc ? "rpc/server wait" : "client wait";
  ph.dominant = wait_label;
  std::uint64_t best = ph.remainder;
  if (ph.one_sided > best) {
    best = ph.one_sided;
    ph.dominant = "one-sided verbs";
  }
  if (ph.backoff > best) {
    ph.dominant = "retry backoff";
  }
  return ph;
}

/// Reassemble completed ops from every snapshot.
std::vector<OpRecord> collect_ops(
    const std::vector<EventLog::Snapshot>& snapshots) {
  std::vector<OpRecord> ops;
  for (const EventLog::Snapshot& snap : snapshots) {
    std::map<std::uint32_t, OpRecord> by_id;
    for (const Event& ev : snap.events) {
      if (ev.op == 0) continue;
      OpRecord& op = by_id[ev.op];
      op.snap = &snap;
      op.id = ev.op;
      op.events.push_back(ev);
      switch (static_cast<EventType>(ev.type)) {
        case EventType::kOpBegin:
          op.has_begin = true;
          op.begin = ev.t;
          op.kind = static_cast<OpKind>(ev.aux);
          break;
        case EventType::kOpEnd:
          op.has_end = true;
          op.end = ev.t;
          op.status = ev.a;
          break;
        default:
          break;
      }
    }
    for (auto& [id, op] : by_id) {
      static_cast<void>(id);
      // Ops truncated by the ring or by a crash are missing an endpoint;
      // skip them for latency ranking (they have no defined duration).
      if (op.has_begin && op.has_end && op.end >= op.begin) {
        ops.push_back(std::move(op));
      }
    }
  }
  return ops;
}

/// Server-side events causally tied to `op` but emitted with op id 0:
/// RPC deliveries matching the op's call ids and verifier / cleaner
/// activity on the op's bound object offsets.
std::vector<Event> joined_events(const OpRecord& op) {
  std::set<std::uint64_t> call_ids;
  std::set<std::uint64_t> offsets;
  for (const Event& ev : op.events) {
    const auto type = static_cast<EventType>(ev.type);
    if (type == EventType::kRpcIssue) call_ids.insert(ev.a);
    if (type == EventType::kObjBind) offsets.insert(ev.a);
  }
  std::vector<Event> joined;
  if (call_ids.empty() && offsets.empty()) return joined;
  for (const Event& ev : op.snap->events) {
    if (ev.op != 0) continue;
    switch (static_cast<EventType>(ev.type)) {
      case EventType::kRpcDeliver:
        if (call_ids.count(ev.a) != 0) joined.push_back(ev);
        break;
      case EventType::kVerifyScan:
      case EventType::kVerifyFlush:
      case EventType::kFlagSet:
      case EventType::kVerifyTimeout:
      case EventType::kGcCopy:
        if (offsets.count(ev.a) != 0) joined.push_back(ev);
        break;
      default:
        break;
    }
  }
  return joined;
}

void print_op(int rank, const OpRecord& op) {
  const Phases ph = attribute(op);
  const std::uint64_t duration = op.end - op.begin;
  std::cout << "#" << rank << "  " << kOpKindNames[static_cast<int>(op.kind)]
            << " op " << op.id << "  " << us(duration) << "  ["
            << (op.snap->label.empty() ? "<unlabelled>" : op.snap->label)
            << "]  status=" << to_string(static_cast<StatusCode>(op.status))
            << "\n";
  if (op.kind == OpKind::kGet) {
    const char* path = "unknown (no get_path event)";
    for (const Event& ev : op.events) {
      if (ev.type == static_cast<std::uint8_t>(EventType::kGetPath)) {
        path = get_path_name(ev.aux);
      }
    }
    std::cout << "   path: " << path << "\n";
  }
  std::cout << "   phases: one-sided " << us(ph.one_sided) << ", backoff "
            << us(ph.backoff) << ", "
            << (ph.used_rpc ? "rpc/server wait " : "client wait ")
            << us(ph.remainder) << "  ->  dominant: " << ph.dominant << "\n";
  std::vector<Event> chain = op.events;
  for (const Event& ev : joined_events(op)) chain.push_back(ev);
  std::stable_sort(chain.begin(), chain.end(),
                   [](const Event& x, const Event& y) { return x.t < y.t; });
  for (const Event& ev : chain) {
    std::cout << render_event(*op.snap, ev, op.begin, ev.op == 0) << "\n";
  }
  std::cout << "\n";
}

int cmd_validate(const char* path) {
  std::ifstream in{path};
  if (!in) {
    std::cerr << "trace_inspect: cannot open " << path << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const Status status = validate_chrome_trace(buffer.str());
  if (!status.is_ok()) {
    std::cerr << "trace_inspect: " << path
              << " fails trace schema validation: " << status.to_string()
              << "\n";
    return 1;
  }
  std::cout << "trace_inspect: " << path
            << " conforms to the Chrome trace-event schema\n";
  return 0;
}

int cmd_explain(const char* path, int slowest) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    std::cerr << "trace_inspect: cannot open " << path << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string data = buffer.str();
  std::vector<EventLog::Snapshot> snapshots;
  if (const Status status = read_binary(data, &snapshots); !status.is_ok()) {
    std::cerr << "trace_inspect: " << path
              << " is not a valid EFTR dump: " << status.to_string() << "\n";
    return 1;
  }

  std::vector<OpRecord> ops = collect_ops(snapshots);
  std::uint64_t dropped = 0;
  for (const EventLog::Snapshot& snap : snapshots) dropped += snap.dropped;
  std::cout << snapshots.size() << " snapshot(s), " << ops.size()
            << " completed op(s)";
  if (dropped != 0) {
    std::cout << ", " << dropped
              << " event(s) dropped by the ring (oldest-first)";
  }
  std::cout << "\n\n";
  if (ops.empty()) {
    std::cerr << "trace_inspect: no completed ops to explain\n";
    return 1;
  }

  std::sort(ops.begin(), ops.end(), [](const OpRecord& x, const OpRecord& y) {
    return (x.end - x.begin) > (y.end - y.begin);
  });
  const int count =
      std::min<int>(slowest, static_cast<int>(ops.size()));
  std::cout << "slowest " << count << " op(s) by virtual-time latency:\n\n";
  for (int i = 0; i < count; ++i) {
    print_op(i + 1, ops[static_cast<std::size_t>(i)]);
  }
  return 0;
}

/// Perfetto/Chrome counter-track export of the telemetry series: one
/// process per snapshot (named by its label via process_name metadata),
/// one "ph":"C" counter event per retained tick. Rates and gauges render
/// as stacked counter tracks in the timeline UI.
std::string to_perfetto_counters(
    const std::vector<metrics::TelemetrySnapshot>& snapshots) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t s = 0; s < snapshots.size(); ++s) {
    const metrics::TelemetrySnapshot& snap = snapshots[s];
    const std::size_t pid = s + 1;
    if (!first) os << ",";
    first = false;
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
       << ",\"args\":{\"name\":\""
       << (snap.label.empty() ? "<unlabelled>" : snap.label) << "\"}}";
    for (const metrics::TelemetrySnapshot::Series& series : snap.series) {
      for (std::size_t i = 0; i < series.points.size(); ++i) {
        // Chrome trace timestamps are microseconds.
        const double ts =
            static_cast<double>(snap.start_ns +
                                i * snap.period_ns) /
            1000.0;
        os << ",{\"ph\":\"C\",\"name\":\"" << series.name
           << "\",\"pid\":" << pid << ",\"tid\":0,\"ts\":" << ts
           << ",\"args\":{\"value\":" << series.points[i] << "}}";
      }
    }
  }
  os << "]}";
  return os.str();
}

int cmd_timeline(const char* path, const char* perfetto_out) {
  std::ifstream in{path};
  if (!in) {
    std::cerr << "trace_inspect: cannot open " << path << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const Expected<std::vector<metrics::TelemetrySnapshot>> snapshots =
      metrics::parse_telemetry_json(buffer.str());
  if (!snapshots) {
    std::cerr << "trace_inspect: " << path
              << " is not a valid efac.telemetry.v1 document: "
              << snapshots.status().to_string() << "\n";
    return 1;
  }

  for (const metrics::TelemetrySnapshot& snap : *snapshots) {
    std::ostringstream title;
    title << "timeline ["
          << (snap.label.empty() ? "<unlabelled>" : snap.label) << "]  "
          << snap.samples << " sample(s) @ " << snap.period_ns << "ns";
    if (snap.dropped != 0) {
      title << "  (" << snap.dropped << " dropped by the ring)";
    }
    TextTable table{title.str()};
    table.set_header({"series", "kind", "points", "min", "max", "mean",
                      "last"});
    for (const metrics::TelemetrySnapshot::Series& series : snap.series) {
      if (series.points.empty()) {
        table.add_row({series.name,
                       series.kind == metrics::SeriesKind::kRate ? "rate"
                                                                 : "gauge",
                       "0", "-", "-", "-", "-"});
        continue;
      }
      double lo = series.points.front();
      double hi = lo;
      double sum = 0.0;
      for (const double v : series.points) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        sum += v;
      }
      table.add_row(
          {series.name,
           series.kind == metrics::SeriesKind::kRate ? "rate" : "gauge",
           std::to_string(series.points.size()), TextTable::num(lo),
           TextTable::num(hi),
           TextTable::num(sum / static_cast<double>(series.points.size())),
           TextTable::num(series.points.back())});
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  if (perfetto_out != nullptr) {
    std::ofstream out{perfetto_out};
    out << to_perfetto_counters(*snapshots) << "\n";
    if (!out) {
      std::cerr << "trace_inspect: failed to write " << perfetto_out << "\n";
      return 1;
    }
    std::cout << "perfetto counter tracks written to " << perfetto_out
              << "\n";
  }
  return 0;
}

int usage() {
  std::cerr << "usage:\n"
               "  trace_inspect validate <trace.json>\n"
               "  trace_inspect explain [--slowest=K] <trace.bin>\n"
               "  trace_inspect timeline [--perfetto=<out.json>] "
               "<TELEM.json>\n";
  return 2;
}

}  // namespace
}  // namespace efac::trace

int main(int argc, char** argv) {
  if (argc < 3) return efac::trace::usage();
  const std::string_view cmd{argv[1]};
  if (cmd == "validate" && argc == 3) {
    return efac::trace::cmd_validate(argv[2]);
  }
  if (cmd == "explain") {
    int slowest = 5;
    const char* path = nullptr;
    for (int i = 2; i < argc; ++i) {
      constexpr const char* kSlowest = "--slowest=";
      if (std::strncmp(argv[i], kSlowest, 10) == 0) {
        slowest = std::atoi(argv[i] + 10);
        if (slowest <= 0) {
          std::cerr << "trace_inspect: --slowest= needs a positive count\n";
          return 2;
        }
      } else if (path == nullptr) {
        path = argv[i];
      } else {
        return efac::trace::usage();
      }
    }
    if (path == nullptr) return efac::trace::usage();
    return efac::trace::cmd_explain(path, slowest);
  }
  if (cmd == "timeline") {
    const char* perfetto = nullptr;
    const char* path = nullptr;
    for (int i = 2; i < argc; ++i) {
      constexpr const char* kPerfetto = "--perfetto=";
      if (std::strncmp(argv[i], kPerfetto, 11) == 0) {
        perfetto = argv[i] + 11;
        if (*perfetto == '\0') {
          std::cerr << "trace_inspect: --perfetto= needs a path\n";
          return 2;
        }
      } else if (path == nullptr) {
        path = argv[i];
      } else {
        return efac::trace::usage();
      }
    }
    if (path == nullptr) return efac::trace::usage();
    return efac::trace::cmd_timeline(path, perfetto);
  }
  return efac::trace::usage();
}
