#include "analysis/checker.hpp"

#include <algorithm>
#include <sstream>

#include "common/assert.hpp"
#include "sim/simulator.hpp"

namespace efac::analysis {

const char* to_string(Guard g) noexcept {
  switch (g) {
    case Guard::kNone: return "none";
    case Guard::kCrcVerify: return "crc-verify";
    case Guard::kDurabilityFlag: return "durability-flag";
    case Guard::kMetaRevalidate: return "meta-revalidate";
    case Guard::kRecoveryScan: return "recovery-scan";
    case Guard::kAtomicWord: return "atomic-word";
    case Guard::kDeclaredRacy: return "declared-racy";
  }
  return "unknown";
}

const char* to_string(ViolationKind k) noexcept {
  switch (k) {
    case ViolationKind::kWriteWriteRace: return "write-write race";
    case ViolationKind::kWriteReadRace: return "write-read race";
    case ViolationKind::kReadWriteRace: return "read-write race";
    case ViolationKind::kReadOfInFlightWrite: return "read of in-flight write";
    case ViolationKind::kUnflushedDurability: return "unflushed durability";
  }
  return "unknown";
}

Checker::Checker(sim::Simulator& sim, AnalysisOptions options,
                 metrics::MetricsRegistry* registry)
    : sim_(sim),
      options_(options),
      names_{"external", "server"},
      labels_{"", ""},
      clocks_(2),
      guard_stacks_(2),
      owned_metrics_(registry == nullptr
                         ? std::make_unique<metrics::MetricsRegistry>()
                         : nullptr),
      metrics_(registry == nullptr ? *owned_metrics_ : *registry),
      stats_(metrics_) {
  // Epochs start at 1 so a fresh clock entry (0) never covers a real
  // access: C[r][w] >= rec.epoch must be false until an acquire happened.
  clocks_[server_actor()].resize(2, 0);
  clocks_[server_actor()][server_actor()] = 1;
  sim_.set_hb_hooks(this);
}

Checker::~Checker() {
  *alive_ = false;
  if (sim_.hb_hooks() == this) sim_.set_hb_hooks(nullptr);
}

std::uint32_t Checker::register_client_actor() {
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back("client-" + std::to_string(next_client_++));
  labels_.push_back("");
  clocks_.emplace_back();
  clocks_.back().resize(id + 1, 0);
  clocks_.back()[id] = 1;
  guard_stacks_.emplace_back();
  return id;
}

const std::string& Checker::actor_name(std::uint32_t actor) const {
  EFAC_CHECK_MSG(actor < names_.size(), "unknown actor id " << actor);
  return names_[actor];
}

void Checker::switch_to(std::uint32_t actor, const char* label) noexcept {
  sim_.set_actor(actor);
  if (actor < labels_.size()) labels_[actor] = label;
}

void Checker::release(sim::VectorClock& into) {
  const std::uint32_t actor = running_actor();
  if (actor == 0) return;
  sim::VectorClock& c = clocks_[actor];
  if (into.size() < c.size()) into.resize(c.size(), 0);
  for (std::size_t i = 0; i < c.size(); ++i) {
    into[i] = std::max(into[i], c[i]);
  }
  ++c[actor];
}

void Checker::acquire(const sim::VectorClock& from) {
  const std::uint32_t actor = running_actor();
  if (actor == 0 || from.empty()) return;
  sim::VectorClock& c = clocks_[actor];
  if (c.size() < from.size()) c.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i) {
    c[i] = std::max(c[i], from[i]);
  }
}

Checker::Page& Checker::page(std::size_t index) {
  std::unique_ptr<Page>& slot = pages_[index];
  if (slot == nullptr) slot = std::make_unique<Page>();
  return *slot;
}

Checker::Page* Checker::find_page(std::size_t index) const noexcept {
  const auto it = pages_.find(index);
  return it == pages_.end() ? nullptr : it->second.get();
}

bool Checker::ordered_before_current(const AccessRecord& rec) const {
  const sim::VectorClock& c = clocks_[running_actor()];
  return rec.actor < c.size() && c[rec.actor] >= rec.epoch;
}

Guard Checker::active_guard(std::uint32_t actor) const noexcept {
  const auto& stack = guard_stacks_[actor];
  return stack.empty() ? Guard::kNone : stack.back().first;
}

const char* Checker::active_site(std::uint32_t actor) const noexcept {
  const auto& stack = guard_stacks_[actor];
  if (!stack.empty()) return stack.back().second;
  return labels_[actor] != nullptr ? labels_[actor] : "";
}

std::uint32_t Checker::new_record(SimTime end, Guard guard,
                                  const char* site) {
  const std::uint32_t actor = running_actor();
  records_.push_back(AccessRecord{actor, clocks_[actor][actor], sim_.now(),
                                  end, guard, site});
  return static_cast<std::uint32_t>(records_.size());
}

void Checker::push_guard(std::uint32_t actor, Guard guard, const char* site) {
  if (actor == 0 || actor >= guard_stacks_.size()) return;
  guard_stacks_[actor].emplace_back(guard, site);
}

void Checker::pop_guard(std::uint32_t actor) noexcept {
  if (actor == 0 || actor >= guard_stacks_.size()) return;
  auto& stack = guard_stacks_[actor];
  if (!stack.empty()) stack.pop_back();
}

void Checker::record_conflict(ViolationKind kind, MemOffset off,
                              std::size_t len, const AccessRecord& prior,
                              Guard own_guard, const char* own_site) {
  // A conflict is tolerated when either side declares the protocol
  // mechanism that makes it safe (the reader verifies, the writer updates
  // an atomic word, ...). Only annotation-free conflicts are races.
  if (own_guard != Guard::kNone || prior.guard != Guard::kNone) {
    ++guarded_total_;
    ++stats_.conflicts_guarded;
    return;
  }
  add_violation(Violation{kind, off, len, running_actor(), prior.actor,
                          sim_.now(), prior.end, own_site, prior.site},
                /*durability=*/false);
}

void Checker::add_violation(Violation v, bool durability) {
  if (durability) {
    ++durability_total_;
    ++stats_.durability_violations;
  } else {
    ++unguarded_total_;
    ++stats_.races_unguarded;
  }
  if (violations_.size() < kMaxReports) violations_.push_back(v);
}

void Checker::mark_volatile(MemOffset off, std::size_t len) {
  std::size_t pos = off;
  std::size_t remaining = len;
  while (remaining > 0) {
    const std::size_t base = pos % kPageBytes;
    const std::size_t in_page = std::min(remaining, kPageBytes - base);
    Page& pg = page(pos / kPageBytes);
    const std::size_t first = base / kAtomic;
    const std::size_t last = (base + in_page - 1) / kAtomic;
    for (std::size_t w = first; w <= last; ++w) {
      pg.volatile_words[w >> 6] |= std::uint64_t{1} << (w & 63);
    }
    pos += in_page;
    remaining -= in_page;
  }
}

void Checker::on_flush(MemOffset off, std::size_t len) {
  if (len == 0 || pages_.empty()) return;
  std::size_t pos = off;
  std::size_t remaining = len;
  while (remaining > 0) {
    const std::size_t base = pos % kPageBytes;
    const std::size_t in_page = std::min(remaining, kPageBytes - base);
    if (Page* pg = find_page(pos / kPageBytes)) {
      const std::size_t first = base / kAtomic;
      const std::size_t last = (base + in_page - 1) / kAtomic;
      for (std::size_t w = first; w <= last; ++w) {
        pg->volatile_words[w >> 6] &= ~(std::uint64_t{1} << (w & 63));
      }
    }
    pos += in_page;
    remaining -= in_page;
  }
}

void Checker::write_common(MemOffset off, std::size_t len, SimTime end) {
  const std::uint32_t actor = running_actor();
  const Guard guard = active_guard(actor);
  const char* site = active_site(actor);
  const std::uint32_t id = new_record(end, guard, site);
  ++stats_.writes_checked;
  std::uint32_t prev_write = 0;
  std::uint32_t prev_read = 0;
  std::size_t pos = off;
  std::size_t remaining = len;
  while (remaining > 0) {
    Page& pg = page(pos / kPageBytes);
    const std::size_t base = pos % kPageBytes;
    const std::size_t in_page = std::min(remaining, kPageBytes - base);
    for (std::size_t i = 0; i < in_page; ++i) {
      std::uint32_t& w = pg.last_write[base + i];
      if (w != 0 && w != prev_write) {
        prev_write = w;
        const AccessRecord& rec = records_[w - 1];
        if (rec.actor != actor && !ordered_before_current(rec)) {
          record_conflict(ViolationKind::kWriteWriteRace, pos + i, len, rec,
                          guard, site);
        }
      }
      const std::uint32_t r = pg.last_read[base + i];
      if (r != 0 && r != prev_read) {
        prev_read = r;
        const AccessRecord& rec = records_[r - 1];
        if (rec.actor != actor && !ordered_before_current(rec)) {
          record_conflict(ViolationKind::kWriteReadRace, pos + i, len, rec,
                          guard, site);
        }
      }
      w = id;
    }
    pos += in_page;
    remaining -= in_page;
  }
  mark_volatile(off, len);
}

void Checker::on_cpu_write(MemOffset off, std::size_t len) {
  if (running_actor() == 0 || len == 0) return;
  write_common(off, len, sim_.now());
}

void Checker::on_dma_write(MemOffset off, std::size_t len, SimTime start,
                           SimTime end) {
  static_cast<void>(start);
  if (running_actor() == 0 || len == 0) return;
  write_common(off, len, end);
}

void Checker::on_read(MemOffset off, std::size_t len) {
  const std::uint32_t actor = running_actor();
  if (actor == 0 || len == 0) return;
  ++stats_.reads_checked;
  const SimTime now = sim_.now();
  const Guard guard = active_guard(actor);
  const char* site = active_site(actor);
  const std::uint32_t id = new_record(now, guard, site);
  std::uint32_t prev_write = 0;
  std::size_t pos = off;
  std::size_t remaining = len;
  while (remaining > 0) {
    Page& pg = page(pos / kPageBytes);
    const std::size_t base = pos % kPageBytes;
    const std::size_t in_page = std::min(remaining, kPageBytes - base);
    for (std::size_t i = 0; i < in_page; ++i) {
      const std::uint32_t w = pg.last_write[base + i];
      if (w != 0 && w != prev_write) {
        prev_write = w;
        const AccessRecord& rec = records_[w - 1];
        if (rec.actor != actor) {
          if (now < rec.end) {
            // The payload is still materializing chunk-by-chunk: even an
            // HB-ordered reader would see a torn prefix.
            record_conflict(ViolationKind::kReadOfInFlightWrite, pos + i,
                            len, rec, guard, site);
          } else if (!ordered_before_current(rec)) {
            record_conflict(ViolationKind::kReadWriteRace, pos + i, len, rec,
                            guard, site);
          }
        }
      }
      pg.last_read[base + i] = id;
    }
    pos += in_page;
    remaining -= in_page;
  }
}

void Checker::assert_durable(MemOffset off, std::size_t len,
                             const char* site) {
  if (len == 0) return;
  ++stats_.durability_checks;
  const SimTime now = sim_.now();
  bool found = false;
  MemOffset bad = 0;
  const AccessRecord* in_flight = nullptr;

  // 1. Volatile words: written past the last flush covering them. Tracked
  //    at 8-byte-word precision — the arena's line-granular dirty bits
  //    would false-positive on payload bytes sharing a line with the
  //    (intentionally unflushed) durability flag word.
  std::size_t pos = off;
  std::size_t remaining = len;
  while (remaining > 0 && !found) {
    const std::size_t base = pos % kPageBytes;
    const std::size_t in_page = std::min(remaining, kPageBytes - base);
    if (const Page* pg = find_page(pos / kPageBytes)) {
      const std::size_t first = base / kAtomic;
      const std::size_t last = (base + in_page - 1) / kAtomic;
      for (std::size_t w = first; w <= last; ++w) {
        if ((pg->volatile_words[w >> 6] >> (w & 63)) & 1u) {
          found = true;
          bad = pos - base + w * kAtomic;
          break;
        }
      }
    }
    pos += in_page;
    remaining -= in_page;
  }

  // 2. In-flight DMA: bytes not even fully placed yet.
  if (!found) {
    std::uint32_t prev_write = 0;
    pos = off;
    remaining = len;
    while (remaining > 0 && in_flight == nullptr) {
      const std::size_t base = pos % kPageBytes;
      const std::size_t in_page = std::min(remaining, kPageBytes - base);
      if (const Page* pg = find_page(pos / kPageBytes)) {
        for (std::size_t i = 0; i < in_page; ++i) {
          const std::uint32_t w = pg->last_write[base + i];
          if (w != 0 && w != prev_write) {
            prev_write = w;
            const AccessRecord& rec = records_[w - 1];
            if (rec.end > now) {
              in_flight = &rec;
              bad = pos + i;
              break;
            }
          }
        }
      }
      pos += in_page;
      remaining -= in_page;
    }
    found = in_flight != nullptr;
  }

  if (!found) return;
  if (options_.allow_unflushed_durability) {
    ++stats_.durability_suppressed;
    return;
  }
  add_violation(
      Violation{ViolationKind::kUnflushedDurability, bad, len, running_actor(),
                in_flight != nullptr ? in_flight->actor : 0, now,
                in_flight != nullptr ? in_flight->end : 0, site,
                in_flight != nullptr ? in_flight->site : ""},
      /*durability=*/true);
}

void Checker::forget_region(MemOffset off, std::size_t len) noexcept {
  if (len == 0 || pages_.empty()) return;
  std::size_t pos = off;
  std::size_t remaining = len;
  while (remaining > 0) {
    const std::size_t base = pos % kPageBytes;
    const std::size_t in_page = std::min(remaining, kPageBytes - base);
    if (Page* pg = find_page(pos / kPageBytes)) {
      std::fill_n(pg->last_write.data() + base, in_page, 0u);
      std::fill_n(pg->last_read.data() + base, in_page, 0u);
      const std::size_t first = base / kAtomic;
      const std::size_t last = (base + in_page - 1) / kAtomic;
      for (std::size_t w = first; w <= last; ++w) {
        pg->volatile_words[w >> 6] &= ~(std::uint64_t{1} << (w & 63));
      }
    }
    pos += in_page;
    remaining -= in_page;
  }
}

void Checker::on_crash() {
  // Post-crash contents are exactly the persisted image: every shadow
  // stamp (including volatility — nothing dirty survives as "pending") is
  // void. Recovery re-reads under its own kRecoveryScan guards.
  pages_.clear();
  records_.clear();
}

void Checker::render(const Violation& v, std::string& out) const {
  std::ostringstream os;
  os << '[' << to_string(v.kind) << "] "
     << (v.actor < names_.size() ? names_[v.actor] : "actor?");
  if (v.site != nullptr && *v.site != '\0') os << " (" << v.site << ')';
  os << " at t=" << v.time << "ns";
  if (v.kind == ViolationKind::kUnflushedDurability) {
    if (v.prior_actor != 0) {
      os << ", in-flight write by "
         << (v.prior_actor < names_.size() ? names_[v.prior_actor]
                                           : "actor?")
         << " arriving t=" << v.prior_time << "ns";
    } else {
      os << ", range written but never flushed past the volatility "
            "boundary";
    }
  } else {
    os << " vs "
       << (v.prior_actor < names_.size() ? names_[v.prior_actor] : "actor?");
    if (v.prior_site != nullptr && *v.prior_site != '\0') {
      os << " (" << v.prior_site << ')';
    }
    os << " at t=" << v.prior_time << "ns";
  }
  os << ", arena bytes [" << v.offset << ", +" << v.length << ')';
  out += os.str();
}

std::string Checker::report() const {
  std::ostringstream os;
  os << "analysis: " << unguarded_total_ << " unguarded race(s), "
     << durability_total_ << " durability violation(s), " << guarded_total_
     << " guarded conflict(s)\n";
  for (const Violation& v : violations_) {
    std::string line;
    render(v, line);
    os << "  " << line << '\n';
  }
  const std::uint64_t total = unguarded_total_ + durability_total_;
  if (total > violations_.size()) {
    os << "  ... " << (total - violations_.size())
       << " further violation(s) not retained (kMaxReports="
       << kMaxReports << ")\n";
  }
  return os.str();
}

}  // namespace efac::analysis
