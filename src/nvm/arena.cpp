#include "nvm/arena.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "analysis/checker.hpp"
#include "common/assert.hpp"

namespace efac::nvm {

SimDuration CostModel::flush_cost(std::size_t bytes) const noexcept {
  if (bytes == 0) return 0;
  return flush_base_ns + static_cast<SimDuration>(std::llround(
                             flush_byte_ns * static_cast<double>(bytes)));
}

SimDuration CostModel::store_cost(std::size_t bytes) const noexcept {
  return static_cast<SimDuration>(
      std::llround(store_byte_ns * static_cast<double>(bytes)));
}

SimDuration CostModel::load_cost(std::size_t bytes) const noexcept {
  return static_cast<SimDuration>(
      std::llround(load_byte_ns * static_cast<double>(bytes)));
}

Arena::Arena(sim::Simulator& sim, std::size_t size, CostModel cost,
             std::uint64_t seed, metrics::MetricsRegistry* registry)
    : sim_(sim),
      cost_(cost),
      current_(size, 0),
      undo_(size / kLine, kClean),
      rng_(seed),
      owned_metrics_(registry == nullptr
                         ? std::make_unique<metrics::MetricsRegistry>()
                         : nullptr),
      metrics_(registry == nullptr ? *owned_metrics_ : *registry),
      stats_(metrics_) {
  EFAC_CHECK_MSG(size > 0 && size % kLine == 0,
                 "arena size must be a positive multiple of " << kLine);
  EFAC_CHECK_MSG(size / kLine < kZeroUndo, "arena too large: " << size);
}

void Arena::check_range(MemOffset off, std::size_t len) const {
  EFAC_CHECK_MSG(off <= current_.size() && len <= current_.size() - off,
                 "arena access out of range: off=" << off << " len=" << len
                                                   << " size="
                                                   << current_.size());
}

std::uint8_t* Arena::slot_bytes(std::uint32_t slot) const noexcept {
  return undo_blocks_[slot / kSlotsPerBlock].get() +
         (slot % kSlotsPerBlock) * kLine;
}

namespace {

bool all_zero(const std::uint8_t* line) noexcept {
  std::uint64_t any = 0;
  for (std::size_t w = 0; w < Arena::kLine; w += Arena::kAtomicUnit) {
    std::uint64_t word = 0;
    std::memcpy(&word, line + w, sizeof word);
    any |= word;
  }
  return any == 0;
}

}  // namespace

void Arena::mark_dirty(MemOffset off, std::size_t len) {
  if (len == 0) return;
  const std::size_t first = off / kLine;
  const std::size_t last = (off + len - 1) / kLine;
  for (std::size_t line = first; line <= last; ++line) {
    if (undo_[line] != kClean) continue;
    const std::uint8_t* bytes = current_.data() + line * kLine;
    if (all_zero(bytes)) {
      undo_[line] = kZeroUndo;
      continue;
    }
    const std::uint32_t slot = take_slot();
    std::memcpy(slot_bytes(slot), bytes, kLine);
    undo_[line] = slot;
  }
}

std::uint32_t Arena::take_slot() {
  const std::uint32_t slot = free_slot_;
  if (slot != 0) {
    std::memcpy(&free_slot_, slot_bytes(slot), sizeof free_slot_);
    return slot;
  }
  if (next_slot_ / kSlotsPerBlock == undo_blocks_.size()) {
    undo_blocks_.push_back(
        std::make_unique_for_overwrite<std::uint8_t[]>(kSlotsPerBlock * kLine));
  }
  return next_slot_++;
}

void Arena::mark_clean(std::size_t line) {
  const std::uint32_t slot = undo_[line];
  if (slot != kClean && slot != kZeroUndo) {
    std::memcpy(slot_bytes(slot), &free_slot_, sizeof free_slot_);
    free_slot_ = slot;
  }
  undo_[line] = kClean;
}

void Arena::store(MemOffset off, BytesView data) {
  check_range(off, data.size());
  if (data.empty()) return;
  resolve_dma(sim_.now());
  mark_dirty(off, data.size());
  std::memcpy(current_.data() + off, data.data(), data.size());
  ++stats_.cpu_stores;
  stats_.cpu_store_bytes += data.size();
  if (checker_ != nullptr) checker_->on_cpu_write(off, data.size());
}

void Arena::store_u64(MemOffset off, std::uint64_t value) {
  EFAC_CHECK_MSG(off % kAtomicUnit == 0, "store_u64 requires 8-byte alignment");
  std::uint8_t raw[kAtomicUnit];
  store_u64_le(raw, value);
  store(off, BytesView{raw, kAtomicUnit});
}

const std::uint8_t* Arena::begin_load(MemOffset off, std::size_t len) {
  check_range(off, len);
  if (len != 0) {
    resolve_dma(sim_.now());
    ++stats_.cpu_loads;
    stats_.cpu_load_bytes += len;
    if (checker_ != nullptr) checker_->on_read(off, len);
  }
  return current_.data() + off;
}

void Arena::load(MemOffset off, MutableBytesView out) {
  std::copy_n(begin_load(off, out.size()), out.size(), out.begin());
}

Bytes Arena::load(MemOffset off, std::size_t len) {
  const std::uint8_t* bytes = begin_load(off, len);
  return Bytes(bytes, bytes + len);
}

std::uint64_t Arena::load_u64(MemOffset off) {
  EFAC_CHECK_MSG(off % kAtomicUnit == 0, "load_u64 requires 8-byte alignment");
  std::uint8_t raw[kAtomicUnit];
  load(off, MutableBytesView{raw, kAtomicUnit});
  return load_u64_le(raw);
}

void Arena::flush(MemOffset off, std::size_t len) {
  if (len == 0) return;
  if (injector_ != nullptr && injector_->enabled()) {
    if (injector_->fire(fault::Site::kPersistDrop)) return;
    if (injector_->fire(fault::Site::kPersistDelay)) {
      // The CLWB is deferred: the caller believes the data is durable, but
      // the lines reach the media only delay_ns later — a crash in between
      // loses them (unless naturally evicted).
      const SimDuration d =
          injector_->spec(fault::Site::kPersistDelay).delay_ns;
      sim_.call_after(d, [this, off, len] { flush_now(off, len); });
      return;
    }
  }
  flush_now(off, len);
}

void Arena::flush_now(MemOffset off, std::size_t len) {
  check_range(off, len);
  resolve_dma(sim_.now());
  const std::size_t first = off / kLine;
  const std::size_t last = (off + len - 1) / kLine;
  const std::size_t lines = last - first + 1;
  // Flush at line granularity, as CLWB does: neighbours sharing a flushed
  // line persist too.
  for (std::size_t line = first; line <= last; ++line) mark_clean(line);
  stats_.flushed_lines += lines;
  ++stats_.flushes;
  if (checker_ != nullptr) {
    // The checker sees the line-expanded range: neighbours sharing a
    // flushed line really did persist.
    checker_->on_flush(first * kLine, lines * kLine);
  }
}

bool Arena::is_dirty(MemOffset off, std::size_t len) {
  if (len == 0) return false;
  check_range(off, len);
  resolve_dma(sim_.now());
  const std::size_t first = off / kLine;
  const std::size_t last = (off + len - 1) / kLine;
  for (std::size_t line = first; line <= last; ++line) {
    if (undo_[line] != kClean) return true;
  }
  return false;
}

std::size_t Arena::chunk_count(const Placement& p) noexcept {
  return (p.data.size() + kLine - 1) / kLine;
}

void Arena::apply_range(const Placement& p, std::size_t first_chunk,
                        std::size_t end_chunk) {
  const std::size_t begin = first_chunk * kLine;
  const std::size_t len = std::min(end_chunk * kLine, p.data.size()) - begin;
  mark_dirty(p.off + begin, len);
  std::memcpy(current_.data() + p.off + begin, p.data.data() + begin, len);
}

namespace {

/// Arrival instant of chunk `i` (by placement order) of `n` chunks spread
/// over [start, end]: the last chunk lands exactly at `end`.
SimTime chunk_arrival(SimTime start, SimTime end, std::size_t i,
                      std::size_t n) {
  if (n <= 1) return end;
  const double frac = static_cast<double>(i + 1) / static_cast<double>(n);
  return start + static_cast<SimTime>(
                     std::llround(frac * static_cast<double>(end - start)));
}

/// Deterministic permutation of [0, n) from a seed (Fisher–Yates).
std::vector<std::size_t> shuffled_indices(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  efac::Rng rng{seed};
  for (std::size_t i = n; i > 1; --i) {
    std::swap(idx[i - 1], idx[rng.next_below(i)]);
  }
  return idx;
}

}  // namespace

void Arena::dma_write(MemOffset off, BytesView data, SimTime start,
                      SimTime end, PlacementOrder order) {
  check_range(off, data.size());
  EFAC_CHECK_MSG(start <= end, "DMA interval inverted");
  if (data.empty()) return;
  ++stats_.dma_writes;
  stats_.dma_bytes += data.size();
  if (checker_ != nullptr) {
    checker_->on_dma_write(off, data.size(), start, end);
  }
  Placement& p = pending_.emplace_back(Placement{
      off, Bytes(data.begin(), data.end()), start, end, order, rng_(), 0, 0});
  p.next_arrival = chunk_arrival(start, end, 0, chunk_count(p));
  next_arrival_ = std::min(next_arrival_, p.next_arrival);
  resolve_dma(sim_.now());
}

void Arena::resolve_dma(SimTime now) {
  // No chunk lands before the earliest pending arrival.
  if (now < next_arrival_) return;
  SimTime next = kNever;
  auto it = pending_.begin();
  while (it != pending_.end()) {
    Placement& p = *it;
    if (now < p.next_arrival) {
      next = std::min(next, p.next_arrival);
      ++it;
      continue;
    }
    const std::size_t n = chunk_count(p);
    const bool complete = now >= p.end;
    // Arrival instants never decrease with the chunk index and the clock
    // never goes back, so every chunk below applied_chunks has arrived, and
    // chunk applied_chunks has too (now >= next_arrival): the scan resumes
    // after it. The last chunk lands at `end`, so while the placement is
    // incomplete the scan stops before it.
    std::size_t arrived = n;
    if (!complete) {
      arrived = p.applied_chunks + 1;
      while ((p.next_arrival = chunk_arrival(p.start, p.end, arrived, n)) <=
             now) {
        ++arrived;
      }
    }
    if (p.order == PlacementOrder::kSequential) {
      apply_range(p, p.applied_chunks, arrived);
    } else {
      const auto idx = shuffled_indices(n, p.shuffle_seed);
      for (std::size_t i = p.applied_chunks; i < arrived; ++i) {
        apply_range(p, idx[i], idx[i] + 1);
      }
    }
    p.applied_chunks = arrived;
    if (complete) {
      it = pending_.erase(it);
    } else {
      next = std::min(next, p.next_arrival);
      ++it;
    }
  }
  next_arrival_ = next;
}

void Arena::crash(const CrashPolicy& policy) {
  // 1. In-flight DMA: chunks that arrived by now are in `current_` (and
  //    dirty); the rest are lost with the NIC/PCIe buffers.
  resolve_dma(sim_.now());
  pending_.clear();
  next_arrival_ = kNever;

  // 2. Dirty lines, in address order: each 8-byte word independently either
  //    was evicted to the media before the crash (keeps its current bytes)
  //    or is lost (gets its persisted bytes back).
  for (std::size_t line = 0; line < undo_.size(); ++line) {
    const std::uint32_t undo = undo_[line];
    if (undo == kClean) continue;
    std::uint8_t* bytes = current_.data() + line * kLine;
    for (std::size_t w = 0; w < kLine; w += kAtomicUnit) {
      if (rng_.next_bool(policy.eviction_probability)) continue;
      if (undo == kZeroUndo) {
        std::memset(bytes + w, 0, kAtomicUnit);
      } else {
        std::memcpy(bytes + w, slot_bytes(undo) + w, kAtomicUnit);
      }
    }
    mark_clean(line);
  }
  ++stats_.crashes;
  if (checker_ != nullptr) checker_->on_crash();
}

void Arena::forget_shadow(MemOffset off, std::size_t len) noexcept {
  if (checker_ != nullptr) checker_->forget_region(off, len);
}

Bytes Arena::persisted_bytes(MemOffset off, std::size_t len) const {
  EFAC_CHECK_MSG(off <= current_.size() && len <= current_.size() - off,
                 "persisted_bytes out of range");
  Bytes out(current_.begin() + static_cast<std::ptrdiff_t>(off),
            current_.begin() + static_cast<std::ptrdiff_t>(off + len));
  if (len == 0) return out;
  for (std::size_t line = off / kLine; line <= (off + len - 1) / kLine;
       ++line) {
    const std::uint32_t undo = undo_[line];
    if (undo == kClean) continue;
    const std::size_t begin = std::max<std::size_t>(line * kLine, off);
    const std::size_t end = std::min<std::size_t>((line + 1) * kLine, off + len);
    std::uint8_t* dst = out.data() + (begin - off);
    if (undo == kZeroUndo) {
      std::memset(dst, 0, end - begin);
    } else {
      std::memcpy(dst, slot_bytes(undo) + (begin - line * kLine), end - begin);
    }
  }
  return out;
}

}  // namespace efac::nvm
