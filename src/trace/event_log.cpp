#include "trace/event_log.hpp"

namespace efac::trace {

const char* const kEventNames[static_cast<std::size_t>(EventType::kCount)] = {
    "op_begin",     "op_end",   "rpc_issue", "rpc_deliver",
    "qp_verb",      "vf_scan",  "vf_flush",  "flag_set",
    "vf_timeout",   "gc_copy",  "gc_switch", "retry",
    "backoff",      "fault",    "get_path",  "obj_bind",
};

const char* const kOpKindNames[3] = {"PUT", "GET", "DEL"};

const char* const kVerbNames[static_cast<std::size_t>(Verb::kVerbCount)] = {
    "READ", "WRITE", "WRITE_IMM", "SEND", "CAS", "FETCH_ADD", "COMMIT",
    "WRITE_FAULTED",
};

const char* const kGetPathNames[static_cast<std::size_t>(
    GetPath::kPathCount)] = {
    "fast one-sided", "rpc-only mode",    "cleaning active",
    "flag unset",     "index-entry miss", "read error",
};

EventLog::EventLog(sim::Simulator& sim, std::string actor_prefix)
    : sim_(sim), actor_prefix_(std::move(actor_prefix)) {
  ring_.reserve(kCapacity);
}

std::uint16_t EventLog::register_track(std::string name) {
  tracks_.push_back(actor_prefix_ + std::move(name));
  return static_cast<std::uint16_t>(tracks_.size() - 1);
}

void EventLog::emit(std::uint16_t track, std::uint32_t op, EventType type,
                    std::uint8_t aux, std::uint64_t a, std::uint64_t b) {
  Event e;
  e.t = static_cast<std::uint64_t>(sim_.now());
  e.a = a;
  e.b = b;
  e.op = op;
  e.track = track;
  e.type = static_cast<std::uint8_t>(type);
  e.aux = aux;
  if (ring_.size() < kCapacity) {
    ring_.push_back(e);
  } else {
    // Overwrite the oldest slot: the ring holds the most recent
    // kCapacity events, which is the right bias for tail forensics.
    ring_[total_ % kCapacity] = e;
  }
  ++total_;
}

EventLog::Snapshot EventLog::snapshot(std::string label) const {
  Snapshot snap;
  snap.label = std::move(label);
  snap.tracks = tracks_;
  snap.dropped = dropped();
  snap.events.reserve(ring_.size());
  if (total_ <= kCapacity) {
    snap.events = ring_;
  } else {
    const std::size_t head = total_ % kCapacity;
    snap.events.insert(snap.events.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head),
                       ring_.end());
    snap.events.insert(snap.events.end(), ring_.begin(),
                       ring_.begin() + static_cast<std::ptrdiff_t>(head));
  }
  return snap;
}

}  // namespace efac::trace
