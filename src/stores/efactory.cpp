#include "stores/efactory.hpp"

#include "common/contracts.hpp"

#include <algorithm>
#include <optional>

namespace efac::stores {

namespace {

StoreConfig with_efactory_defaults(StoreConfig config) {
  config.second_pool = true;                 // log cleaning needs a sibling
  config.recv_mode = RecvMode::kBatched;     // multiple receiving regions
  return config;
}

}  // namespace

EFactoryStore::EFactoryStore(sim::Simulator& sim, StoreConfig config)
    : DirStore(sim, with_efactory_defaults(config)) {
  verifier_rec_.attach(trace_log_.get(), "verifier");
  cleaner_rec_.attach(trace_log_.get(), "cleaner");
  // Load-bearing queue depths for the telemetry sampler: these are the
  // series the paper's dynamics arguments (verifier drain vs. ack latency,
  // cleaner interference) are about. Probes only read state — no verbs, no
  // persistence — so the persist-before-ack contracts are untouched.
  if (telemetry() != nullptr) {
    telemetry()->add_gauge_probe(this, "server.verify_queue_depth", [this] {
      return static_cast<double>(verify_queue_.size());
    });
    telemetry()->add_gauge_probe(this, "server.cleaner_backlog", [this] {
      return static_cast<double>(clean_backlog_);
    });
    telemetry()->add_gauge_probe(this, "server.pool_fill", [this] {
      return working_pool().fill_fraction();
    });
  }
}

std::unique_ptr<KvClient> EFactoryStore::make_client(ClientOptions options) {
  // kDefault on eFactory means the hybrid read scheme.
  if (options.read_mode == ReadMode::kDefault) {
    options.read_mode = ReadMode::kHybrid;
  }
  return std::make_unique<EFactoryClient>(*this, options);
}

void EFactoryStore::start_extras() {
  sim_.spawn(background_loop());
}

// --------------------------------------------------------------- dispatch

sim::Task<void> EFactoryStore::handle(rdma::InboundMessage msg) {
  co_await charge(config_.recv_cost());
  rpc::ParsedRequest req = rpc::parse_request(msg);
  switch (req.opcode) {
    case kAlloc:
      co_await handle_alloc(std::move(req));
      break;
    case kAllocBatch:
      co_await handle_alloc_batch(std::move(req));
      break;
    case kGetLoc:
      co_await handle_get_loc(std::move(req));
      break;
    case kDelete:
      co_await handle_delete(std::move(req));
      break;
    default:
      EFAC_UNREACHABLE("eFactory: unexpected opcode");
  }
}

AllocResponse EFactoryStore::alloc_reserve(const AllocRequest& alloc,
                                           SimDuration& cost) {
  // Every return either persisted the object metadata + hash entry or
  // carries an error status that claims nothing (efac-check EFAC002).
  EFAC_FN_ESTABLISHES_DURABLE();
  const std::uint64_t key_hash = kv::hash_key(alloc.key);

  AllocResponse resp;
  const Expected<std::size_t> slot = claim_slot(key_hash, cost);
  if (stage_ != CleanStage::kIdle) cost += config_.clean_interference_ns;

  if (!slot) {
    EFAC_NO_CLAIM("efactory.alloc.bucket_full");
    resp.status = slot.status().code();
    return resp;
  }
  kv::HashDir::Entry entry = dir_.read(*slot);
  entry.key_hash = key_hash;
  // During merge, new writes go straight to the new (shadow) pool and
  // join its chain; otherwise they append to the working pool.
  const bool to_shadow = stage_ == CleanStage::kMerge;
  kv::DataPool& pool = to_shadow ? shadow_pool() : working_pool();
  const MemOffset pre = to_shadow ? shadow_of(entry) : working_of(entry);
  // Object metadata is written and persisted *before* the offset is
  // returned (paper Fig. 5 steps 2–4).
  const Expected<MemOffset> off =
      stage_at(pool, alloc, pre, /*persist=*/true, cost);
  if (!off) {
    EFAC_NO_CLAIM("efactory.alloc.out_of_space");
    resp.status = off.code();
    return resp;
  }
  if (to_shadow) {
    set_shadow(entry, *off);
  } else {
    set_working(entry, *off);
  }
  dir_.write(*slot, entry);
  dir_.persist(*slot);
  cost += arena_->cost().flush_cost(kv::HashDir::kEntrySize);
  // Metadata + hash entry flushed; the handler charges the closing fence
  // before any reply leaves the server.
  EFAC_PERSISTS("efactory.alloc.metadata");
  verify_queue_.push_back(*off);
  resp.status = StatusCode::kOk;
  resp.object_off = *off;
  return resp;
}

sim::Task<void> EFactoryStore::handle_alloc(rpc::ParsedRequest req) {
  const AllocRequest alloc = AllocRequest::decode(req.args);
  SimDuration cost = 0;
  const AllocResponse resp = alloc_reserve(alloc, cost);
  // Object metadata and hash entry drain under one SFENCE.
  if (resp.status == StatusCode::kOk) cost += arena_->cost().fence_ns;
  co_await charge(cost + config_.cpu.send_post_ns);
  EFAC_ACK_SITE("efactory.alloc_ack");
  reply(req, resp.encode());
  maybe_trigger_cleaning();
}

sim::Task<void> EFactoryStore::handle_alloc_batch(rpc::ParsedRequest req) {
  SimDuration cost = 0;
  const BatchAllocResponse out =
      reserve_each(req.args, [&](const AllocRequest& alloc) {
        return alloc_reserve(alloc, cost);
      });
  const bool indexed = std::any_of(
      out.items.begin(), out.items.end(),
      [](const AllocResponse& r) { return r.status == StatusCode::kOk; });
  // The server-side amortization of the batch-reserve path: every
  // member's object metadata and hash entry drain under ONE shared
  // SFENCE, and the batch costs one receive and one reply.
  if (indexed) cost += arena_->cost().fence_ns;
  // Per-member evidence lives in alloc_reserve (EFAC_FN_ESTABLISHES_
  // DURABLE, called per item above); an empty batch reply claims nothing.
  EFAC_PERSISTS("efactory.alloc_batch.members");
  co_await charge(cost + config_.cpu.send_post_ns);
  EFAC_ACK_SITE("efactory.alloc_batch_ack");
  reply(req, out.encode());
  maybe_trigger_cleaning();
}

sim::Task<void> EFactoryStore::handle_delete(rpc::ParsedRequest req) {
  const GetLocRequest del = GetLocRequest::decode(req.args);
  const std::uint64_t key_hash = kv::hash_key(del.key);
  std::size_t probes = 0;
  StatusCode status = StatusCode::kOk;
  const Expected<std::size_t> slot = dir_.find(key_hash, &probes);
  SimDuration cost = probes * config_.cpu.hash_probe_ns;
  if (!slot) {
    EFAC_NO_CLAIM("efactory.del.not_found");
    status = StatusCode::kNotFound;
  } else {
    kv::HashDir::Entry entry = dir_.read(*slot);
    const bool to_shadow = stage_ == CleanStage::kMerge;
    kv::DataPool& pool = to_shadow ? shadow_pool() : working_pool();
    const MemOffset pre = to_shadow ? shadow_of(entry) : working_of(entry);
    const std::size_t klen = del.key.size();
    const Expected<MemOffset> off =
        pool.allocate(kv::ObjectLayout::total_size(klen, 0));
    if (!off) {
      EFAC_NO_CLAIM("efactory.del.out_of_space");
      status = StatusCode::kOutOfSpace;
    } else {
      // A delete is an appended tombstone version: out-of-place like any
      // update, so it is crash-atomic and reclaimable by log cleaning.
      kv::ObjectMeta meta;
      meta.crc = kv::object_crc(key_hash, static_cast<std::uint32_t>(klen), 0, BytesView{});
      meta.klen = static_cast<std::uint32_t>(klen);
      meta.vlen = 0;
      meta.valid = true;
      meta.tombstone = true;
      meta.pre_ptr = pre;
      meta.write_time = sim_.now();
      meta.key_hash = key_hash;
      kv::ObjectRef obj{*arena_, *off};
      obj.write_header(meta);
      obj.write_key(del.key);
      obj.set_durable(klen, 0, false);
      if (pre != 0) kv::ObjectRef{*arena_, pre}.set_next_ptr(*off);
      const std::size_t meta_bytes = kv::ObjectLayout::kHeaderSize + klen;
      arena_->flush(*off, meta_bytes);
      ++stats_.allocs;
      ++stats_.persists;
      if (to_shadow) {
        set_shadow(entry, *off);
      } else {
        set_working(entry, *off);
      }
      dir_.write(*slot, entry);
      dir_.persist(*slot);
      verify_queue_.push_back(*off);  // bg will flag the (empty) tombstone
      // Tombstone header+key and hash entry flushed; fence charged below.
      EFAC_PERSISTS("efactory.del.tombstone");
      cost += config_.cpu.alloc_ns +
              arena_->cost().store_cost(meta_bytes) +
              arena_->cost().flush_cost(meta_bytes) +
              arena_->cost().flush_cost(kv::HashDir::kEntrySize) +
              arena_->cost().fence_ns;
    }
  }
  co_await charge(cost + config_.cpu.send_post_ns);
  EFAC_ACK_SITE("efactory.del_ack");
  reply(req, encode_status(status));
}

// ------------------------------------------------------------------- GET

sim::Task<Expected<LocResponse>> EFactoryStore::locate_verified(
    std::uint64_t key_hash) {
  // Ok returns hand out only verified-durable locations; error returns
  // claim nothing (efac-check EFAC002 discharges this summary).
  EFAC_FN_ESTABLISHES_DURABLE();
  std::size_t probes = 0;
  const Expected<std::size_t> slot = dir_.find(key_hash, &probes);
  co_await charge(probes * config_.cpu.hash_probe_ns);
  if (!slot) {
    EFAC_NO_CLAIM("efactory.locate.not_found");
    co_return Status{StatusCode::kNotFound};
  }

  const kv::HashDir::Entry entry = dir_.read(*slot);
  const std::vector<MemOffset> versions = collect_versions(entry);
  bool saw_torn = false;
  for (const MemOffset off : versions) {
    kv::ObjectRef obj{*arena_, off};
    const kv::ObjectMeta meta = obj.read_header();
    if (!meta.valid || meta.key_hash != key_hash) continue;
    // Tombstones are server-written and persisted synchronously: the
    // newest valid version being a tombstone means the key is deleted.
    if (meta.tombstone) {
      // Deletion was persisted synchronously by the delete handler; this
      // reply claims no OBJECT durability (nothing to locate).
      EFAC_NO_CLAIM("efactory.locate.deleted");
      co_return Status{StatusCode::kNotFound, "deleted"};
    }
    LocResponse resp;
    resp.object_off = off;
    resp.klen = meta.klen;
    resp.vlen = meta.vlen;
    // Durability check first: if the background thread (or an earlier
    // read) already persisted it, answer without touching the data.
    if (obj.is_durable(meta.klen, meta.vlen)) {
      ++stats_.get_durability_hits;
      // flag==1 promises exactly this: header+key+value are persisted.
      assert_object_durable(
          checker_.get(), off,
          kv::ObjectLayout::flag_offset(meta.klen, meta.vlen),
          "efactory.get.durability_hit");
      co_return resp;
    }
    // Selective durability guarantee: verify + persist + flag.
    if (co_await verify_and_persist(off)) {
      co_return resp;
    }
    saw_torn = true;
  }
  EFAC_NO_CLAIM("efactory.locate.miss_or_torn");
  co_return Status{saw_torn ? StatusCode::kCorrupt : StatusCode::kNotFound};
}

sim::Task<void> EFactoryStore::handle_get_loc(rpc::ParsedRequest req) {
  const GetLocRequest get = GetLocRequest::decode(req.args);
  Expected<LocResponse> located =
      co_await locate_verified(kv::hash_key(get.key));
  LocResponse resp;
  if (located) {
    resp = *located;
  } else {
    resp.status = located.status().code();
  }
  co_await charge(config_.cpu.send_post_ns);
  EFAC_ACK_SITE("efactory.locate_ack");
  reply(req, resp.encode());
}

// ------------------------------------------------------------ background

sim::Task<bool> EFactoryStore::verify_and_persist(MemOffset off) {
  // Returns true only after CRC verify + flush + fence (or an observed
  // durability flag); false paths claim nothing (efac-check EFAC002).
  EFAC_FN_ESTABLISHES_DURABLE();
  kv::ObjectRef obj{*arena_, off};
  const kv::ObjectMeta meta = obj.read_header();
  if (!object_span_ok(off, meta) || !meta.valid) {
    EFAC_NO_CLAIM("efactory.verify.garbage");
    co_return false;
  }
  if (obj.is_durable(meta.klen, meta.vlen)) co_return true;

  ++stats_.crc_checks;
  co_await charge(config_.crc.cost(meta.vlen));
  {
    // The verify read races with the client's in-flight RDMA WRITE by
    // design; a CRC mismatch on torn bytes is the expected outcome.
    analysis::AccessGuard guard(checker_.get(), analysis::Guard::kCrcVerify,
                                "efactory.verify_crc");
    if (!obj.verify_crc()) {
      EFAC_NO_CLAIM("efactory.verify.torn");
      co_return false;
    }
  }

  const std::size_t total = kv::ObjectLayout::total_size(meta.klen, meta.vlen);
  obj.flush_all(meta.klen, meta.vlen);
  co_await charge(arena_->cost().flush_cost(total) + arena_->cost().fence_ns);
  EFAC_PERSISTS("efactory.verify.flush_fence");
  verifier_rec_.emit(trace::EventType::kVerifyFlush, 0, off, total);
  // The flag covers header+key+value only — itself it stays volatile.
  assert_object_durable(checker_.get(), off,
                        kv::ObjectLayout::flag_offset(meta.klen, meta.vlen),
                        "efactory.verify_and_persist.flag");
  // The flag is set only after the payload is persisted. The flag itself
  // stays volatile: flag==1 promises "bytes are durable", and recovery
  // never trusts flags (it re-verifies by CRC), so losing a set flag in a
  // crash is harmless — and skipping its flush+fence doubles the single
  // background thread's verification rate.
  obj.set_durable(meta.klen, meta.vlen, true);
  verifier_rec_.emit(trace::EventType::kFlagSet, 0, off);
  ++stats_.persists;
  // Write-to-durable latency: how long the object sat unflagged since the
  // alloc handler stamped it (the paper's asynchronous-durability window).
  tracer_.record("server.verify_to_flag", sim_.now() - meta.write_time);
  co_return true;
}

sim::Task<void> EFactoryStore::background_loop() {
  const std::uint64_t epoch = epoch_;
  for (;;) {
    if (epoch != epoch_) co_return;  // superseded by a restart
    if (verify_queue_.empty()) {
      co_await charge(config_.bg_idle_ns);
      continue;
    }
    const MemOffset off = verify_queue_.front();
    verify_queue_.pop_front();
    verifier_rec_.emit(trace::EventType::kVerifyScan, 0, off,
                       verify_queue_.size());

    kv::ObjectRef obj{*arena_, off};
    const kv::ObjectMeta meta = obj.read_header();
    co_await charge(arena_->cost().load_cost(kv::ObjectLayout::kHeaderSize));
    if (!object_span_ok(off, meta) || !meta.valid) continue;
    if (obj.is_durable(meta.klen, meta.vlen)) continue;  // GET got here first
    // Superseded versions are skipped: the head is what reads target, and
    // stale space is reclaimed by log cleaning anyway. One cheap probe
    // against the index answers it (the durability flag plays the same
    // fast-skip role the paper describes for already-persisted objects).
    if (const Expected<std::size_t> slot = dir_.find(meta.key_hash)) {
      const kv::HashDir::Entry entry = dir_.read(*slot);
      co_await charge(config_.cpu.hash_probe_ns);
      if (working_of(entry) != off && shadow_of(entry) != off) continue;
    }

    if (co_await verify_and_persist(off)) {
      ++stats_.bg_verified;
      continue;
    }
    // Incomplete: either the RDMA WRITE is still in flight, or it died.
    if (timed_out(sim_.now(), meta.write_time, config_.object_timeout_ns)) {
      // Identity re-check: the CRC attempt suspended, and a recovery /
      // cleaning round may have recycled this offset for a new object in
      // the meantime — never invalidate somebody else's version.
      const kv::ObjectMeta now_meta = obj.read_header();
      if (now_meta.key_hash == meta.key_hash &&
          now_meta.write_time == meta.write_time) {
        obj.set_valid(false);
        arena_->flush(off, kv::ObjectLayout::kHeaderSize);
        co_await charge(arena_->cost().flush_cost(
                            kv::ObjectLayout::kHeaderSize) +
                        arena_->cost().fence_ns);
        ++stats_.bg_timeouts;
        verifier_rec_.emit(trace::EventType::kVerifyTimeout, 0, off);
      }
    } else {
      verify_queue_.push_back(off);
      co_await charge(config_.bg_retry_ns);
    }
  }
}

// ---------------------------------------------------------- log cleaning

void EFactoryStore::maybe_trigger_cleaning() {
  if (stage_ != CleanStage::kIdle) return;
  if (working_pool().fill_fraction() < config_.clean_threshold) return;
  force_log_cleaning();
}

void EFactoryStore::force_log_cleaning() {
  if (stage_ != CleanStage::kIdle || crashed_) return;
  stage_ = CleanStage::kCompress;  // claims the role before the task runs
  sim_.spawn(cleaning_task());
}

sim::Task<MemOffset> EFactoryStore::copy_object(MemOffset src,
                                                MemOffset link) {
  kv::ObjectRef source{*arena_, src};
  const kv::ObjectMeta meta = source.read_header();
  if (!object_span_ok(src, meta)) co_return 0;
  const std::size_t total = kv::ObjectLayout::total_size(meta.klen, meta.vlen);

  const bool source_flagged = source.is_durable(meta.klen, meta.vlen);
  if (!source_flagged) {
    // An unverified source may still be receiving its RDMA WRITE. Check it
    // *before* claiming shadow space: a torn snapshot can never heal (the
    // payload bytes land at the source offset, not in the copy), and an
    // abandoned copy would leak shadow-pool space that later slots and the
    // finish stage need. A CRC pass means the write has fully landed, so
    // the version is immutable from here on.
    ++stats_.crc_checks;
    co_await charge(config_.crc.cost(meta.vlen));
    if (!source.verify_crc()) co_return 0;
  }

  const Expected<MemOffset> dst = shadow_pool().allocate(total);
  if (!dst) co_return 0;

  Bytes bytes;
  {
    // Verified (flag or CRC) before the load, so the bytes are immutable;
    // the guard documents the cross-actor read for the sanitizer.
    analysis::AccessGuard guard(checker_.get(), analysis::Guard::kCrcVerify,
                                "efactory.clean.copy");
    bytes = arena_->load(src, total);
  }
  arena_->store(*dst, bytes);
  kv::ObjectRef copy{*arena_, *dst};
  copy.set_durable(meta.klen, meta.vlen, false);  // never inherit the flag
  copy.set_pre_ptr(link);
  copy.set_next_ptr(0);
  // Mark the source as transferred so version-list traversal during
  // cleaning can tell a migrated version from a live one (paper Fig. 7).
  source.set_transferred(true);
  arena_->flush(*dst, total);
  co_await charge(config_.cpu.memcpy_cost(total) +
                  arena_->cost().flush_cost(total) +
                  arena_->cost().fence_ns);
  EFAC_PERSISTS("efactory.clean.copy_flush");
  // The source was verified up front (durability flag, or the CRC pass
  // above); an atomic CPU copy of intact bytes is intact, so the copy
  // earns the flag without re-verification.
  assert_object_durable(checker_.get(), *dst,
                        kv::ObjectLayout::flag_offset(meta.klen, meta.vlen),
                        "efactory.clean.copy_flag");
  copy.set_durable(meta.klen, meta.vlen, true);  // volatile, like verify
  ++stats_.cleaned_objects;
  cleaner_rec_.emit(trace::EventType::kGcCopy, 0, src, *dst);
  co_return *dst;
}

sim::Task<bool> EFactoryStore::await_verifiable(MemOffset off) {
  kv::ObjectRef obj{*arena_, off};
  for (;;) {
    const kv::ObjectMeta meta = obj.read_header();
    if (!object_span_ok(off, meta) || !meta.valid) co_return false;
    if (obj.is_durable(meta.klen, meta.vlen)) co_return true;
    ++stats_.crc_checks;
    co_await charge(config_.crc.cost(meta.vlen));
    if (obj.verify_crc()) co_return true;
    if (timed_out(sim_.now(), meta.write_time, config_.object_timeout_ns)) {
      obj.set_valid(false);
      co_return false;
    }
    co_await charge(config_.bg_retry_ns);
  }
}

sim::Task<void> EFactoryStore::cleaning_task() {
  const std::uint64_t epoch = epoch_;
  // Whole-round duration (partial rounds killed by a restart record too).
  metrics::Span round_span{tracer_, "server.clean_round"};
  // ---- Stage 1: log compressing -------------------------------------
  cleaner_rec_.emit(trace::EventType::kGcSwitch,
                    static_cast<std::uint8_t>(CleanStage::kCompress));
  clients_use_rpc_ = true;
  co_await charge(config_.clean_notify_ns);  // notification reaches clients
  if (epoch != epoch_) co_return;  // a restart killed this round
  compress_start_ = sim_.now();
  shadow_pool().reset();

  // Candidate backlog for the telemetry gauge: slots this stage has left.
  clean_backlog_ = dir_.bucket_count();
  for (std::size_t slot = 0; slot < dir_.bucket_count(); ++slot) {
    if (epoch != epoch_) co_return;
    --clean_backlog_;
    kv::HashDir::Entry entry = dir_.read(slot);
    if (entry.empty()) continue;
    const MemOffset head = working_of(entry);
    if (head == 0) continue;
    const MemOffset copy = co_await copy_object(head, /*link=*/0);
    // Shadow pool full or in-flight write tore the copy: keep old data.
    if (copy == 0) continue;
    entry = dir_.read(slot);  // re-read: PUTs may have run meanwhile
    set_shadow(entry, copy);
    dir_.write(slot, entry);
    dir_.persist(slot);
    co_await charge(arena_->cost().flush_cost(kv::HashDir::kEntrySize));
  }

  // ---- Stage 2: log merging -----------------------------------------
  stage_ = CleanStage::kMerge;
  cleaner_rec_.emit(trace::EventType::kGcSwitch,
                    static_cast<std::uint8_t>(CleanStage::kMerge));
  clean_backlog_ = dir_.bucket_count();
  for (std::size_t slot = 0; slot < dir_.bucket_count(); ++slot) {
    if (epoch != epoch_) co_return;
    --clean_backlog_;
    kv::HashDir::Entry entry = dir_.read(slot);
    if (entry.empty()) continue;
    const MemOffset old_head = working_of(entry);
    if (old_head == 0) continue;
    kv::ObjectRef obj{*arena_, old_head};
    const kv::ObjectMeta meta = obj.read_header();
    if (!object_span_ok(old_head, meta)) continue;
    if (meta.write_time < compress_start_) continue;  // compress got it

    // Skip rule (paper Fig. 7b): if a newer version already lives in the
    // new pool and is durable (or can be made durable), the old one is
    // stale and need not move.
    const MemOffset shadow_head = shadow_of(entry);
    if (shadow_head != 0) {
      const kv::ObjectMeta shadow_meta =
          kv::ObjectRef{*arena_, shadow_head}.read_header();
      if (object_span_ok(shadow_head, shadow_meta) &&
          shadow_meta.write_time > meta.write_time &&
          co_await await_verifiable(shadow_head)) {
        continue;
      }
    }
    // Wait out an in-flight RDMA WRITE before copying, else we would
    // immortalize a torn object. The shadow head judged above is the
    // snapshot: a merge-era PUT that lands during either await is newer
    // than old_head, and the check below must see it as a splice.
    if (!co_await await_verifiable(old_head)) continue;
    const MemOffset copy = co_await copy_object(old_head, shadow_head);
    if (copy == 0) continue;
    entry = dir_.read(slot);
    if (shadow_of(entry) != shadow_head) {
      // A merge-era PUT spliced in while we copied; our copy is stale.
      kv::ObjectRef{*arena_, copy}.set_valid(false);
      continue;
    }
    set_shadow(entry, copy);
    dir_.write(slot, entry);
    dir_.persist(slot);
    co_await charge(arena_->cost().flush_cost(kv::HashDir::kEntrySize));
  }

  // ---- Finish: flip the mark bit, retire the old pool ----------------
  clean_backlog_ = dir_.bucket_count();
  for (std::size_t slot = 0; slot < dir_.bucket_count(); ++slot) {
    if (epoch != epoch_) co_return;
    --clean_backlog_;
    kv::HashDir::Entry entry = dir_.read(slot);
    if (entry.empty()) continue;
    MemOffset new_head = shadow_of(entry);
    if (new_head == 0) {
      // Live key that never reached the new pool (e.g. shadow pool filled
      // up): last-chance migration so the pool reset cannot orphan it.
      const MemOffset head = working_of(entry);
      if (head != 0 && co_await await_verifiable(head)) {
        new_head = co_await copy_object(head, 0);
      }
      if (new_head == 0) {
        // Nothing valid survives for this key; drop the entry offsets.
        entry.off_old = entry.off_new = 0;
      }
    }
    if (new_head != 0) {
      // Reclaim deleted keys outright: a tombstone head means nothing of
      // this key needs to survive the round ("the memory of deleted and
      // stale objects", paper §4.4).
      const kv::ObjectMeta head_meta =
          kv::ObjectRef{*arena_, new_head}.read_header();
      if (object_span_ok(new_head, head_meta) && head_meta.valid &&
          head_meta.tombstone) {
        entry.off_old = entry.off_new = 0;
        entry.mark = !pool_flip_;
      } else {
        entry.off_old = pool_flip_ ? new_head : 0;
        entry.off_new = pool_flip_ ? 0 : new_head;
        entry.mark = !pool_flip_;
      }
    }
    dir_.write(slot, entry);
    dir_.persist(slot);
  }
  co_await charge(config_.clean_notify_ns);
  if (epoch != epoch_) co_return;

  // Retire: drop pending verifications that point into the retired pool.
  kv::DataPool& retired = working_pool();
  std::erase_if(verify_queue_,
                [&](MemOffset off) { return retired.contains(off); });
  retired.reset();
  pool_flip_ = !pool_flip_;
  ++stats_.cleanings;
  stage_ = CleanStage::kIdle;
  clients_use_rpc_ = false;
  clean_backlog_ = 0;
  cleaner_rec_.emit(trace::EventType::kGcSwitch,
                    static_cast<std::uint8_t>(CleanStage::kIdle));
}

// --------------------------------------------------------------- recovery

Expected<Bytes> EFactoryStore::recover_get(BytesView key) {
  return recover_newest(key, "efactory.recover_get");
}

EFactoryStore::RecoveryReport EFactoryStore::recover() {
  analysis::ActorScope scope(checker_.get(),
                             checker_ != nullptr ? checker_->server_actor()
                                                 : 0);
  analysis::AccessGuard guard(checker_.get(), analysis::Guard::kRecoveryScan,
                              "efactory.recover");
  RecoveryReport report;

  // 1. Harvest: newest intact version per key from the surviving state.
  struct Survivor {
    std::size_t slot;
    kv::ObjectMeta meta;
    Bytes key;
    Bytes value;
  };
  std::vector<Survivor> survivors;
  for (std::size_t slot = 0; slot < dir_.bucket_count(); ++slot) {
    const kv::HashDir::Entry entry = dir_.read(slot);
    if (entry.empty()) continue;
    ++report.entries_scanned;
    if (entry.off_old == 0 && entry.off_new == 0) {
      // A claimed slot with no versions: the key was deleted and its
      // tombstone already reclaimed by cleaning. Nothing to lose.
      ++report.tombstones_dropped;
      continue;
    }
    bool kept = false;
    bool deleted = false;
    for (const MemOffset off : collect_versions(entry)) {
      kv::ObjectRef obj{*arena_, off};
      const kv::ObjectMeta meta = obj.read_header();
      if (!meta.valid || meta.key_hash != entry.key_hash) {
        ++report.versions_discarded;
        continue;
      }
      if (meta.tombstone) {
        deleted = true;
        break;
      }
      if (!obj.verify_crc()) {
        ++report.versions_discarded;
        continue;
      }
      survivors.push_back(Survivor{slot, meta, obj.read_key(meta.klen),
                                   obj.read_value(meta.klen, meta.vlen)});
      kept = true;
      break;
    }
    if (deleted) {
      ++report.tombstones_dropped;
    } else if (kept) {
      ++report.keys_recovered;
    } else {
      ++report.keys_lost;
    }
  }

  // 2. Rebuild: compact every survivor into pool A from a clean slate.
  //    (Bytes were copied out above, so overwriting the pools is safe.)
  pool_a().reset();
  if (config_.second_pool) pool_b().reset();
  pool_flip_ = false;
  stage_ = CleanStage::kIdle;
  clients_use_rpc_ = false;
  clean_backlog_ = 0;
  verify_queue_.clear();

  std::vector<bool> rebuilt(dir_.bucket_count(), false);
  for (Survivor& s : survivors) {
    const std::size_t total =
        kv::ObjectLayout::total_size(s.meta.klen, s.meta.vlen);
    const Expected<MemOffset> off = pool_a().allocate(total);
    EFAC_CHECK_MSG(off.has_value(), "recovery compaction cannot overflow");
    kv::ObjectMeta meta = s.meta;
    meta.pre_ptr = 0;  // history was compacted away
    meta.next_ptr = 0;
    meta.transferred = false;
    kv::ObjectRef obj{*arena_, *off};
    obj.write_header(meta);
    obj.write_key(s.key);
    arena_->store(*off + kv::ObjectLayout::kHeaderSize + s.meta.klen,
                  s.value);
    arena_->flush(*off, total);
    // Recovery runs quiesced: the flush persists synchronously, no fence
    // race to order against.
    EFAC_PERSISTS("efactory.recover.compact_flush");
    assert_object_durable(
        checker_.get(), *off,
        kv::ObjectLayout::flag_offset(s.meta.klen, s.meta.vlen),
        "efactory.recover.compact_flag");
    obj.set_durable(s.meta.klen, s.meta.vlen, true);  // verified above

    kv::HashDir::Entry entry{};
    entry.key_hash = s.meta.key_hash;
    entry.off_old = *off;
    entry.off_new = 0;
    entry.mark = false;
    dir_.write(s.slot, entry);
    dir_.persist(s.slot);
    rebuilt[s.slot] = true;
  }
  // Lost / deleted keys: clear their entries so probing stays correct
  // (key_hash kept, offsets zeroed — the slot still terminates probes).
  for (std::size_t slot = 0; slot < dir_.bucket_count(); ++slot) {
    kv::HashDir::Entry entry = dir_.read(slot);
    if (entry.empty() || rebuilt[slot]) continue;
    entry.off_old = entry.off_new = 0;
    entry.mark = false;
    dir_.write(slot, entry);
    dir_.persist(slot);
  }

  // Old long-running actors (background verifier, a cleaning round caught
  // mid-flight by the crash) terminate at their next resumption; the
  // restarted server gets a fresh verifier.
  ++epoch_;
  sim_.spawn(background_loop());

  crashed_ = false;
  return report;
}

// ----------------------------------------------------------------- client

EFactoryClient::EFactoryClient(EFactoryStore& store,
                               const ClientOptions& options)
    : ProtocolClient(store, options, /*charge_crc=*/true),
      efactory_(store),
      hybrid_(options.read_mode != ReadMode::kRpcOnly) {
  // The adaptive state only serves the hybrid fast path, so an RPC-only
  // ("w/o hr") client never builds it even when the switch is on.
  if (options.adaptive.enabled && hybrid_) {
    adaptive_ = std::make_unique<AdaptiveReadState>(metrics_);
  }
}

sim::Task<Status> EFactoryClient::del_attempt(Bytes key) {
  GetLocRequest req;
  req.key = std::move(key);
  const Expected<Bytes> raw = co_await conn_.call_timeout(
      kDelete, req.encode(), options_.retry.rpc_timeout_ns);
  if (!raw) co_return raw.status();
  co_return Status{decode_status(*raw)};
}

sim::Task<Expected<Bytes>> EFactoryClient::get_attempt(Bytes key) {
  ++stats_.gets;
  TRACE_SPAN(tracer_, "get.total");
  const std::uint64_t key_hash = kv::hash_key(key);

  // A hedged locate RPC raced against the speculative pair READ below:
  // abandoned if the speculation holds, awaited by the fallback otherwise.
  std::optional<rpc::Connection::PendingCall> hedge;

  // Why this GET left the fast path, for the flight recorder. The default
  // covers the RPC-only ablation and clients without a size hint.
  trace::GetPath fallback = trace::GetPath::kRpcOnlyMode;
  if (hybrid_ && efactory_.clients_use_rpc()) {
    fallback = trace::GetPath::kCleaningActive;
  }

  // ---- optimistic pure-RDMA path -------------------------------------
  if (hybrid_ && !efactory_.clients_use_rpc() && vlen_hint_ > 0) {
    kv::HashDir& dir = efactory_.dir();
    const std::size_t total =
        kv::ObjectLayout::total_size(klen_hint_, vlen_hint_);
    // Speculative pair READ: when the durable-offset record knows which
    // offset this key was last seen durable at, the ideal-slot entry and
    // the object at that offset are fetched in ONE doorbelled round trip.
    // If the entry still points there, the GET completes in half the fast
    // path's usual latency; if the key moved (or is displaced), only the
    // prediction's response bytes were wasted and the serial path takes
    // over with the entry already in hand.
    const MemOffset spec_off =
        adaptive_ != nullptr ? adaptive_->predicted_off(key_hash) : 0;
    if (adaptive_ != nullptr) {
      // Hedged GET: the fallback locate RPC departs NOW, concurrently
      // with the optimistic READs. If the attempt lands (flag set), the
      // response is abandoned unread and the server did a cheap flag-set
      // locate for nothing; if it doesn't, the RPC has been cooking at
      // the server since t0 and the serialization penalty of a failed
      // optimistic attempt disappears.
      GetLocRequest hedge_req;
      hedge_req.key = key;
      hedge = conn_.call_begin(kGetLoc, hedge_req.encode());
    }
    Expected<kv::HashDir::Entry> entry = Status{StatusCode::kNotFound};
    // The object's bytes: the pair READ's second half once its entry
    // confirms the prediction, otherwise READ through the entry below.
    Expected<Bytes> object = Status{StatusCode::kNotFound};
    // The pair READ is probe 0 of the 16; an entry holding another key
    // sends probe_entry on from probe 1.
    std::size_t first_probe = 0;
    if (spec_off != 0) {
      // Index entries are read racily and re-validated by key hash; the
      // object half is only trusted once the entry confirms the
      // prediction *and* the durability flag is set.
      analysis::AccessGuard entry_guard(checker_,
                                        analysis::Guard::kMetaRevalidate,
                                        "efactory.get.entry_read");
      analysis::AccessGuard spec_guard(checker_,
                                       analysis::Guard::kDurabilityFlag,
                                       "efactory.get.spec_read");
      metrics::Span spec_span{tracer_, "get.spec_read"};
      auto pair = co_await conn_.qp().read_pair(
          store_.index_rkey(), dir.entry_offset(dir.ideal_slot(key_hash)),
          kv::HashDir::kEntrySize, store_.pool_rkey(), pool_off(spec_off),
          total);
      spec_span.finish();
      if (!pair.first) {
        entry = pair.first.status();
      } else {
        const kv::HashDir::Entry ideal = kv::HashDir::decode(*pair.first);
        const bool held = pair.second.has_value() &&
                          ideal.key_hash == key_hash &&
                          ideal.current() == spec_off;
        adaptive_->note_spec_pair(held);
        if (held) object = std::move(pair.second);
        if (ideal.key_hash == key_hash) {
          if (ideal.current() != 0) entry = ideal;
        } else if (!ideal.empty()) {
          first_probe = 1;
        }
      }
    }
    if (spec_off == 0 || first_probe == 1) {
      entry = co_await probe_entry(dir, key_hash, "efactory.get.entry_read",
                                   first_probe);
    }
    if (entry) {
      if (!object) {
        // Trusts nothing until the durability flag says the bytes are
        // immutable and persisted.
        object = co_await read_object(entry->current(), total,
                                      analysis::Guard::kDurabilityFlag,
                                      "efactory.get.flagged_read");
      }
      bool tombstoned = false;
      Expected<Bytes> value =
          object ? decode_object(*object, klen_hint_, vlen_hint_, key_hash,
                                 /*require_flag=*/true, &tombstoned)
                 : object;
      if (value || tombstoned) {
        // Flag set (or conclusive tombstone): this version is the next
        // GET's speculation target.
        if (adaptive_ != nullptr) {
          adaptive_->note_durable(key_hash, entry->current());
        }
        if (hedge) {
          conn_.call_abandon(std::move(*hedge));
          adaptive_->note_hedge(/*wasted=*/true);
        }
        note_get_path(trace::GetPath::kFastOneSided);
        if (value) co_return std::move(value).take();
        co_return Status{StatusCode::kNotFound, "deleted"};
      }
      // Found but not yet durable (or unreadable): RPC fallback.
      fallback = trace::GetPath::kEntryMiss;
      if (value.code() == StatusCode::kUnavailable) {
        fallback = trace::GetPath::kFlagUnset;
      } else if (value.code() == StatusCode::kTimeout) {
        fallback = trace::GetPath::kReadError;
      }
    } else {
      // A one-sided READ fails only on a bad rkey or bounds (kPermission).
      fallback = entry.code() == StatusCode::kNotFound
                     ? trace::GetPath::kEntryMiss
                     : trace::GetPath::kReadError;
    }
  }

  // ---- RPC+RDMA read fallback ----------------------------------------
  note_get_path(fallback);
  metrics::Span rpc_span{tracer_, "get.rpc_fallback"};
  Expected<Bytes> raw = Status{StatusCode::kTimeout, "unset"};
  if (hedge) {
    // The locate RPC has been in flight since before the pair READ was
    // posted; most of its round trip is already behind us.
    adaptive_->note_hedge(/*wasted=*/false);
    raw = co_await conn_.call_finish(std::move(*hedge),
                                     options_.retry.rpc_timeout_ns);
  } else {
    GetLocRequest req;
    req.key = key;
    raw = co_await conn_.call_timeout(kGetLoc, req.encode(),
                                      options_.retry.rpc_timeout_ns);
  }
  rpc_span.finish();
  if (!raw) co_return raw.status();
  const LocResponse resp = LocResponse::decode(*raw);
  if (resp.status != StatusCode::kOk) co_return Status{resp.status};
  // The server hands out only verified-durable locations: record this one
  // as the key's next speculation target (docs/ADAPTIVE_READ.md).
  if (adaptive_ != nullptr) adaptive_->note_durable(key_hash, resp.object_off);
  // The server verified this location; the header is re-validated against
  // the expected identity before the value is trusted.
  const Expected<Bytes> raw_obj = co_await read_object(
      resp.object_off, kv::ObjectLayout::total_size(resp.klen, resp.vlen),
      analysis::Guard::kMetaRevalidate, "efactory.get.located_read");
  if (!raw_obj) co_return raw_obj.status();
  co_return decode_object(*raw_obj, resp.klen, resp.vlen, key_hash);
}

}  // namespace efac::stores
