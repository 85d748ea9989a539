#include "stores/baselines.hpp"

#include "common/contracts.hpp"

#include <array>
#include <vector>

namespace efac::stores {

namespace {

/// Version-chain walk bound for Forca's read-path walk.
constexpr int kMaxChain = 32;

/// The "entry read + object read" GET of SAW, IMM, InPlace and CA. These
/// systems trust the index (or, for CA, simply hope), so no verification
/// happens client-side. Each system states how its object read
/// tolerates racing writers: SAW/IMM index only after the persist point
/// and decode_object re-validates the header (kMetaRevalidate); CA/InPlace
/// give no such guarantee and declare the race (kDeclaredRacy — torn reads
/// are exactly the flaw the motivation suite demonstrates). None of them
/// charges the client CRC pass; CA runs the shared PUT as is.
class TwoReadClient : public ProtocolClient {
 public:
  TwoReadClient(DirStore& store, const ClientOptions& options,
                analysis::Guard object_guard, const char* entry_site,
                const char* object_site)
      : ProtocolClient(store, options, /*charge_crc=*/false),
        dir_(store.dir()),
        object_guard_(object_guard),
        entry_site_(entry_site),
        object_site_(object_site) {}

  sim::Task<Expected<Bytes>> get_attempt(Bytes key) override {
    ++stats_.gets;
    TRACE_SPAN(tracer_, "get.total");
    const std::uint64_t key_hash = kv::hash_key(key);
    const Expected<kv::HashDir::Entry> entry =
        co_await probe_entry(dir_, key_hash, entry_site_);
    if (!entry) co_return entry.status();
    const Expected<Bytes> raw_obj = co_await read_object(
        entry->current(), kv::ObjectLayout::total_size(klen_hint_, vlen_hint_),
        object_guard_, object_site_);
    if (!raw_obj) co_return raw_obj.status();
    note_get_path(trace::GetPath::kFastOneSided);
    co_return decode_object(*raw_obj, klen_hint_, vlen_hint_, key_hash);
  }

 private:
  kv::HashDir& dir_;
  analysis::Guard object_guard_;
  const char* entry_site_;
  const char* object_site_;
};

}  // namespace

// ===================================================================== SAW

sim::Task<void> SawStore::handle(rdma::InboundMessage msg) {
  co_await charge(config_.recv_cost());
  rpc::ParsedRequest req = rpc::parse_request(msg);
  if (req.opcode == kAlloc) {
    SimDuration cost = 0;
    // SAW updates metadata only at the durability point: the header is
    // staged, but the hash entry is NOT indexed yet.
    const Expected<StagedObject> staged =
        stage_object(AllocRequest::decode(req.args), cost);
    const AllocResponse resp = alloc_reply(staged);
    co_await charge(cost + config_.cpu.send_post_ns);
    reply(req, resp.encode());
  } else if (req.opcode == kPersist) {
    const PersistRequest persist = PersistRequest::decode(req.args);
    // Validate before trusting a client-supplied offset: a buggy (or
    // malicious) client must get an error back, not crash the server.
    kv::ObjectMeta meta;
    if (header_readable(persist.object_off)) {
      meta = kv::ObjectRef{*arena_, persist.object_off}.read_header();
    }
    if (meta.key_hash == 0 || !object_span_ok(persist.object_off, meta) ||
        meta.klen != persist.klen || meta.vlen != persist.vlen) {
      EFAC_NO_CLAIM("saw.persist.bad_request");
      co_await charge(config_.cpu.send_post_ns);
      reply(req, encode_status(StatusCode::kInvalidArgument));
      co_return;
    }
    // The OK ack is SAW's durability promise: value landed (RC ordering
    // put the persist SEND behind the payload WRITE) and flush completed.
    SimDuration cost = 0;
    const StatusCode status = persist_and_index(
        persist.object_off, meta.key_hash,
        kv::ObjectLayout::total_size(persist.klen, persist.vlen),
        "saw.persist_ack", cost);
    co_await charge(cost + config_.cpu.send_post_ns);
    EFAC_ACK_SITE("saw.persist_ack");
    reply(req, encode_status(status));
  } else {
    EFAC_UNREACHABLE("SAW: unexpected opcode");
  }
}

namespace {

class SawClient final : public TwoReadClient {
 public:
  SawClient(SawStore& store, const ClientOptions& options)
      : TwoReadClient(store, options, analysis::Guard::kMetaRevalidate,
                      "saw.get.entry_read", "saw.get.object_read") {}

  sim::Task<Status> put_attempt(Bytes key, Bytes value) override {
    ++stats_.puts;
    TRACE_SPAN(tracer_, "put.total");
    // SAW does not rely on checksums; the CRC rides along (free of
    // virtual time) so that recovery inspection can validate data.
    const AllocRequest req = alloc_request(key, value);
    const Expected<AllocResponse> resp = co_await alloc_rpc(req);
    if (!resp) co_return resp.status();

    // WRITE posted fire-and-forget, then the persist SEND on the same QP:
    // RC ordering delivers the SEND only after the payload has landed.
    const Expected<SimTime> posted = conn_.qp().post_write(
        store_.pool_rkey(), value_off(resp->object_off, key.size()), value);
    if (!posted) co_return posted.status();
    PersistRequest persist;
    persist.object_off = resp->object_off;
    persist.klen = req.klen;
    persist.vlen = req.vlen;
    // The persist RPC rides behind the posted WRITE, so its duration
    // covers data landing + server flush + ack — SAW's durability wait.
    metrics::Span persist_span{tracer_, "put.persist_rpc"};
    const Expected<Bytes> ack = co_await conn_.call_timeout(
        kPersist, persist.encode(), options_.retry.rpc_timeout_ns);
    persist_span.finish();
    if (!ack) co_return ack.status();
    co_return Status{decode_status(*ack)};
  }
};

}  // namespace

std::unique_ptr<KvClient> SawStore::make_client(ClientOptions options) {
  return std::make_unique<SawClient>(*this, options);
}

// ===================================================================== IMM


void ImmAckHub::arm(std::uint32_t token, sim::OneShot<StatusCode>* slot,
                    SimDuration timeout_ns) {
  EFAC_CHECK(waiting_.emplace(token, slot).second);
  if (timeout_ns > 0) {
    sim_.call_after(timeout_ns, [this, token] {
      const auto it = waiting_.find(token);
      if (it == waiting_.end() || it->second->ready()) return;
      sim::OneShot<StatusCode>* s = it->second;
      waiting_.erase(it);
      s->set(StatusCode::kTimeout);
    });
  }
}

void ImmAckHub::complete(std::uint32_t token, StatusCode status) {
  const SimDuration ack_latency =
      fabric_.one_way() + fabric_.config().completion_ns;
  // Look the waiter up when the ack *lands*, not when it is sent: the
  // client may time out and free its slot while the ack is in flight.
  sim_.call_after(ack_latency, [this, token, status] {
    const auto it = waiting_.find(token);
    if (it == waiting_.end()) return;  // client gave up / crashed
    sim::OneShot<StatusCode>* slot = it->second;
    waiting_.erase(it);
    if (!slot->ready()) slot->set(status);
  });
}

sim::Task<void> ImmStore::handle(rdma::InboundMessage msg) {
  // Consuming a write_with_imm completion is lighter than parsing a full
  // request: no payload to stage, just a CQE with a 32-bit immediate.
  co_await charge(msg.has_imm ? config_.cpu.recv_handling_batched_ns
                              : config_.recv_cost());
  if (msg.has_imm) {
    // Completion of a client's write_with_imm: flush, index, ack.
    const auto it = pending_.find(msg.imm);
    if (it == pending_.end()) co_return;  // stale token
    const PendingWrite pw = it->second;
    pending_.erase(it);
    const std::uint64_t key_hash =
        kv::ObjectRef{*arena_, pw.object_off}.read_header().key_hash;
    // The OK ack is IMM's durability promise: the immediate arrived after
    // the payload (RC ordering) and the flush completed.
    SimDuration cost = 0;
    const StatusCode status = persist_and_index(
        pw.object_off, key_hash,
        kv::ObjectLayout::total_size(pw.klen, pw.vlen), "imm.durability_ack",
        cost);
    co_await charge(cost + config_.cpu.send_post_ns);
    EFAC_ACK_SITE("imm.durability_ack");
    ack_hub_.complete(msg.imm, status);
    co_return;
  }

  rpc::ParsedRequest req = rpc::parse_request(msg);
  SimDuration cost = 0;
  Bytes out;
  if (req.opcode == kAllocBatch) {
    // Batch-reserve: one receive, one reply, one charge for the whole
    // batch; each member stages its own pending-write token.
    out = reserve_each(req.args, [&](const AllocRequest& alloc) {
            return alloc_reserve(alloc, cost);
          }).encode();
  } else {
    EFAC_CHECK_MSG(req.opcode == kAlloc, "IMM: unexpected opcode");
    out = alloc_reserve(AllocRequest::decode(req.args), cost).encode();
  }
  co_await charge(cost + config_.cpu.send_post_ns);
  reply(req, std::move(out));
}

AllocResponse ImmStore::alloc_reserve(const AllocRequest& alloc,
                                      SimDuration& cost) {
  const Expected<StagedObject> staged = stage_object(alloc, cost);
  AllocResponse resp = alloc_reply(staged);
  if (!staged) return resp;
  resp.token = next_token_++;
  pending_.emplace(resp.token,
                   PendingWrite{staged->off, alloc.klen, alloc.vlen});
  return resp;
}

namespace {

class ImmClient final : public TwoReadClient {
 public:
  ImmClient(ImmStore& store, const ClientOptions& options)
      : TwoReadClient(store, options, analysis::Guard::kMetaRevalidate,
                      "imm.get.entry_read", "imm.get.object_read"),
        ack_hub_(store.ack_hub()) {}

  sim::Task<Status> put_attempt(Bytes key, Bytes value) override {
    ++stats_.puts;
    TRACE_SPAN(tracer_, "put.total");
    const AllocRequest req = alloc_request(key, value);  // CRC: bookkeeping
    const Expected<AllocResponse> resp = co_await alloc_rpc(req);
    if (!resp) co_return resp.status();

    sim::OneShot<StatusCode> ack{sim_};
    // The durability ack itself can be lost (stale token, injected drop of
    // the IMM notification): bound the wait by the same RPC timeout.
    ack_hub_.arm(resp->token, &ack, options_.retry.rpc_timeout_ns);
    metrics::Span write_span{tracer_, "put.data_write"};
    const Expected<Unit> wr = co_await conn_.qp().write_with_imm(
        store_.pool_rkey(), value_off(resp->object_off, key.size()), value,
        resp->token);
    write_span.finish();
    if (!wr) {
      ack_hub_.disarm(resp->token);
      co_return wr.status();
    }
    // Durability point: the server flushed and acked.
    metrics::Span ack_span{tracer_, "put.durability_ack"};
    const StatusCode status = co_await ack.wait();
    ack_span.finish();
    co_return Status{status};
  }

 protected:
  [[nodiscard]] bool has_batch_put() const noexcept override { return true; }

  /// Batch-reserve PUT: one kAllocBatch RPC stages every member's token,
  /// the write_with_imm WRs go out as one doorbell-coalesced burst, and
  /// the per-member durability acks are awaited afterwards (they carry
  /// the per-op outcome, so per-op statuses survive coalescing). With an
  /// armed fault injector the writes are awaited individually instead so
  /// each member sees its own tear/loss outcome. Not the shared
  /// write_burst: each member arms its ack before its WR is posted and
  /// disarms it if the post fails, and the burst ends on the acks, not on
  /// the last completion, so sharing the step would make it branch on
  /// its caller.
  sim::Task<std::vector<Status>> put_batch_attempt(
      std::vector<PutOp>& ops,
      const std::vector<std::uint32_t>& op_ids) override {
    TRACE_SPAN(tracer_, "put_batch.total");
    const BatchAllocRequest breq = batch_request(ops);  // CRCs: bookkeeping
    const Expected<BatchAllocResponse> bresp = co_await batch_alloc_rpc(breq);
    if (!bresp) co_return std::vector<Status>(ops.size(), bresp.status());

    const bool faultable = store_.injector().enabled();
    std::vector<Status> out(ops.size());
    std::vector<std::unique_ptr<sim::OneShot<StatusCode>>> acks(ops.size());
    metrics::Span write_span{tracer_, "put.data_write"};
    bool head = true;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      recorder_.set_current(op_ids[i]);
      const AllocResponse& resp = bresp->items[i];
      if (resp.status != StatusCode::kOk) {
        out[i] = Status{resp.status};
        continue;
      }
      recorder_.emit(trace::EventType::kObjBind, 0, resp.object_off);
      acks[i] = std::make_unique<sim::OneShot<StatusCode>>(sim_);
      ack_hub_.arm(resp.token, acks[i].get(), options_.retry.rpc_timeout_ns);
      const MemOffset off = value_off(resp.object_off, ops[i].key.size());
      if (faultable) {
        const Expected<Unit> wr = co_await conn_.qp().write_with_imm(
            store_.pool_rkey(), off, ops[i].value, resp.token);
        if (!wr) {
          ack_hub_.disarm(resp.token);
          acks[i].reset();
          out[i] = wr.status();
        }
        continue;
      }
      const Expected<SimTime> posted = conn_.qp().post_write_with_imm(
          store_.pool_rkey(), off, ops[i].value, resp.token,
          /*coalesced=*/!head);
      head = false;
      if (!posted) {
        ack_hub_.disarm(resp.token);
        acks[i].reset();
        out[i] = posted.status();
      }
    }
    write_span.finish();
    // Durability point per member: the server flushed and acked.
    metrics::Span ack_span{tracer_, "put.durability_ack"};
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (acks[i] == nullptr) continue;  // alloc or post already failed
      recorder_.set_current(op_ids[i]);
      out[i] = Status{co_await acks[i]->wait()};
    }
    ack_span.finish();
    recorder_.set_current(op_ids[0]);
    co_return out;
  }

 private:
  ImmAckHub& ack_hub_;
};

}  // namespace

std::unique_ptr<KvClient> ImmStore::make_client(ClientOptions options) {
  return std::make_unique<ImmClient>(*this, options);
}

// ==================================================================== Erda

ErdaStore::ErdaStore(sim::Simulator& sim, StoreConfig config)
    : StoreBase(sim, config,
                kv::ErdaTable::bytes_required(config.hash_buckets)),
      table_(*arena_, 0, config_.hash_buckets, pool_a_->base()) {}

sim::Task<void> ErdaStore::handle(rdma::InboundMessage msg) {
  co_await charge(config_.recv_cost());
  rpc::ParsedRequest req = rpc::parse_request(msg);
  SimDuration cost = 0;
  Bytes out;
  if (req.opcode == kAllocBatch) {
    // Batch-reserve: one receive, one reply, one charge for the batch.
    out = reserve_each(req.args, [&](const AllocRequest& alloc) {
            return alloc_reserve(alloc, cost);
          }).encode();
  } else {
    EFAC_CHECK_MSG(req.opcode == kAlloc, "Erda: unexpected opcode");
    out = alloc_reserve(AllocRequest::decode(req.args), cost).encode();
  }
  co_await charge(cost + config_.cpu.send_post_ns);
  reply(req, std::move(out));
}

AllocResponse ErdaStore::alloc_reserve(const AllocRequest& alloc,
                                       SimDuration& cost) {
  const std::uint64_t key_hash = kv::hash_key(alloc.key);
  AllocResponse resp;
  const Expected<std::size_t> slot = table_.find_or_claim(key_hash);
  // Neighborhood scan plus hopscotch/atomic-region maintenance.
  cost += 2 * config_.cpu.hash_probe_ns + config_.cpu.erda_index_ns;
  if (!slot) {
    resp.status = slot.status().code();
  } else {
    const kv::ErdaTable::Versions versions = table_.read_versions(*slot);
    const Expected<MemOffset> off = pool_a().allocate(
        kv::ObjectLayout::total_size(alloc.klen, alloc.vlen));
    if (!off) {
      resp.status = StatusCode::kOutOfSpace;
    } else {
      // No explicit persistence anywhere on Erda's write path.
      cost += place_object_metadata(*off, alloc, versions.cur,
                                    /*persist=*/false);
      table_.push_version(*slot, *off);  // the single atomic index store
      resp.object_off = *off;
    }
  }
  return resp;
}

Expected<Bytes> ErdaStore::recover_get(BytesView key) {
  analysis::ActorScope scope(
      checker_.get(),
      checker_ != nullptr ? checker_->server_actor() : 0);
  analysis::AccessGuard guard(checker_.get(), analysis::Guard::kRecoveryScan,
                              "erda.recover");
  const std::uint64_t key_hash = kv::hash_key(key);
  const Expected<std::size_t> slot = table_.find(key_hash);
  if (!slot) return Status{StatusCode::kNotFound};
  const kv::ErdaTable::Versions versions = table_.read_versions(*slot);
  // Only the latest two versions are recoverable — the 8-byte region holds
  // no more (the limitation eFactory's version list removes).
  for (const MemOffset off : {versions.cur, versions.prev}) {
    if (off == 0 || !header_readable(off)) continue;
    kv::ObjectRef obj{*arena_, off};
    const kv::ObjectMeta meta = obj.read_header();
    if (!object_span_ok(off, meta)) continue;
    if (!meta.valid || meta.key_hash != key_hash) continue;
    if (obj.verify_crc()) return obj.read_value(meta.klen, meta.vlen);
  }
  return Status{StatusCode::kCorrupt, "no intact version in atomic region"};
}

namespace {

/// Erda's client: the shared PUT and batch-reserve PUT with the client CRC
/// pass charged, and a GET that CRC-verifies every object it reads.
class ErdaClient final : public ProtocolClient {
 public:
  ErdaClient(ErdaStore& store, const ClientOptions& options)
      : ProtocolClient(store, options, /*charge_crc=*/true),
        table_(store.table()) {}

 protected:
  [[nodiscard]] bool has_batch_put() const noexcept override { return true; }

  sim::Task<Expected<Bytes>> get_attempt(Bytes key) override {
    ++stats_.gets;
    TRACE_SPAN(tracer_, "get.total");
    const std::uint64_t key_hash = kv::hash_key(key);
    const std::size_t home = table_.ideal_slot(key_hash);
    metrics::Span entry_span{tracer_, "get.entry_read"};
    // The neighborhood scan races with the server's atomic-region index
    // stores; scan_neighborhood re-validates hashes before trusting it.
    analysis::AccessGuard hood_guard(
        checker_, analysis::Guard::kMetaRevalidate, "erda.get.entry_read");
    const Expected<Bytes> raw_hood = co_await conn_.qp().read(
        store_.index_rkey(), table_.bucket_offset(home),
        kv::ErdaTable::neighborhood_bytes());
    entry_span.finish();
    if (!raw_hood) co_return raw_hood.status();
    const Expected<kv::ErdaTable::Versions> versions =
        kv::ErdaTable::scan_neighborhood(*raw_hood, key_hash,
                                         table_.pool_base());
    if (!versions) co_return versions.status();
    note_get_path(trace::GetPath::kFastOneSided);

    bool first = true;
    const std::array<MemOffset, 2> candidates{versions->cur, versions->prev};
    for (const MemOffset off : candidates) {
      if (off == 0) continue;
      if (!first) ++stats_.version_rereads;
      first = false;
      // Erda tolerates reading in-flight writes precisely because every
      // read is CRC-verified before the value is returned (Fig. 2's cost).
      const Expected<Bytes> raw = co_await read_object(
          off, kv::ObjectLayout::total_size(klen_hint_, vlen_hint_),
          analysis::Guard::kCrcVerify, "erda.get.object_read");
      if (!raw) continue;
      const kv::ObjectMeta meta = kv::ObjectLayout::decode_header(*raw);
      if (meta.key_hash != key_hash || !meta.valid ||
          meta.klen != klen_hint_ || meta.vlen != vlen_hint_) {
        continue;
      }
      // Erda's client verifies integrity by CRC on EVERY read — the
      // critical-path cost Fig. 2 quantifies.
      ++stats_.client_crc_checks;
      metrics::Span crc_span{tracer_, "get.crc"};
      co_await sim::delay(store_.simulator(),
                          store_.config().crc.cost(meta.vlen));
      crc_span.finish();
      const BytesView value{raw->data() + kv::ObjectLayout::kHeaderSize +
                                klen_hint_,
                            vlen_hint_};
      if (kv::object_crc(key_hash, meta.klen, meta.vlen, value) ==
          meta.crc) {
        co_return Bytes(value.begin(), value.end());
      }
    }
    co_return Status{StatusCode::kCorrupt, "both versions incomplete"};
  }

 private:
  kv::ErdaTable& table_;
};

}  // namespace

std::unique_ptr<KvClient> ErdaStore::make_client(ClientOptions options) {
  return std::make_unique<ErdaClient>(*this, options);
}

// =================================================================== Forca

sim::Task<void> ForcaStore::handle(rdma::InboundMessage msg) {
  co_await charge(config_.recv_cost());
  rpc::ParsedRequest req = rpc::parse_request(msg);
  if (req.opcode == kGetLoc) {
    co_await handle_get_loc(std::move(req));
    co_return;
  }
  EFAC_CHECK_MSG(req.opcode == kAlloc, "Forca: unexpected opcode");
  // Forca's extra object-metadata indirection taxes every request.
  SimDuration cost = config_.cpu.metadata_indirection_ns;
  const Expected<StagedObject> staged =
      stage_object(AllocRequest::decode(req.args), cost);
  if (staged) {
    point_entry(staged->slot, staged->entry, staged->off);  // not persisted
  }
  const AllocResponse resp = alloc_reply(staged);
  co_await charge(cost + config_.cpu.send_post_ns);
  reply(req, resp.encode());
}


sim::Task<void> ForcaStore::handle_get_loc(rpc::ParsedRequest req) {
  const GetLocRequest get = GetLocRequest::decode(req.args);
  const std::uint64_t key_hash = kv::hash_key(get.key);
  std::size_t probes = 0;
  co_await charge(config_.cpu.metadata_indirection_ns);
  const Expected<std::size_t> slot = dir_.find(key_hash, &probes);
  co_await charge(probes * config_.cpu.hash_probe_ns);

  LocResponse resp;
  // The default (miss / exhausted-chain) reply claims nothing; only the
  // `intact` branch below upgrades it to a durability-claiming kOk.
  EFAC_NO_CLAIM("forca.get_loc.miss_default");
  resp.status = StatusCode::kNotFound;
  if (slot) {
    const kv::HashDir::Entry entry = dir_.read(*slot);
    int depth = 0;
    MemOffset off = entry.current();
    while (off != 0 && depth++ < kMaxChain) {
      if (!header_readable(off)) break;
      kv::ObjectRef obj{*arena_, off};
      const kv::ObjectMeta meta = obj.read_header();
      if (!object_span_ok(off, meta) || !meta.valid ||
          meta.key_hash != key_hash) {
        break;
      }
      // Forca has no durability flag: it must CRC-verify on EVERY read,
      // then persist, before returning the offset.
      ++stats_.crc_checks;
      tracer_.record("server.get_crc", config_.crc.cost(meta.vlen));
      co_await charge(config_.crc.cost(meta.vlen));
      // The CRC pass reads bytes a client DMA may still be landing into;
      // a torn version fails the check and falls back, which is the guard.
      bool intact = false;
      {
        analysis::AccessGuard crc_guard(checker_.get(),
                                        analysis::Guard::kCrcVerify,
                                        "forca.get_loc.verify");
        intact = obj.verify_crc();
      }
      if (intact) {
        const std::size_t total =
            kv::ObjectLayout::total_size(meta.klen, meta.vlen);
        // Persist only if a previous read has not already done so (the
        // object is clean after the first read-path flush).
        if (arena_->is_dirty(off, total)) {
          arena_->flush(off, total);
          dir_.persist(*slot);
          ++stats_.persists;
          co_await charge(arena_->cost().flush_cost(total) +
                          arena_->cost().flush_cost(kv::HashDir::kEntrySize) +
                          arena_->cost().fence_ns);
          EFAC_PERSISTS("forca.get_loc.read_flush");
        } else {
          // Clean means an earlier read-path flush already persisted this
          // exact span — evidence carries over.
          EFAC_PERSISTS("forca.get_loc.already_clean");
        }
        // Returning the location is Forca's durability promise: the
        // object was verified intact and persisted before the reply.
        assert_object_durable(checker_.get(), off, total,
                              "forca.get_loc.reply");
        resp.status = StatusCode::kOk;
        resp.object_off = off;
        resp.klen = meta.klen;
        resp.vlen = meta.vlen;
        break;
      }
      resp.status = StatusCode::kCorrupt;
      off = meta.pre_ptr;  // torn: fall back to the previous version
    }
  }
  co_await charge(config_.cpu.send_post_ns);
  EFAC_ACK_SITE("forca.locate_ack");
  reply(req, resp.encode());
}

namespace {

/// Forca's client: the shared PUT with the client CRC pass charged, and a
/// GET that always asks the server to verify and persist first.
class ForcaClient final : public ProtocolClient {
 public:
  ForcaClient(ForcaStore& store, const ClientOptions& options)
      : ProtocolClient(store, options, /*charge_crc=*/true) {}

  sim::Task<Expected<Bytes>> get_attempt(Bytes key) override {
    ++stats_.gets;
    note_get_path(trace::GetPath::kRpcOnlyMode);  // always via the server
    TRACE_SPAN(tracer_, "get.total");
    const std::uint64_t key_hash = kv::hash_key(key);
    GetLocRequest req;
    req.key = key;
    metrics::Span rpc_span{tracer_, "get.loc_rpc"};
    const Expected<Bytes> raw = co_await conn_.call_timeout(
        kGetLoc, req.encode(), options_.retry.rpc_timeout_ns);
    rpc_span.finish();
    if (!raw) co_return raw.status();
    const LocResponse resp = LocResponse::decode(*raw);
    if (resp.status != StatusCode::kOk) co_return Status{resp.status};
    // The server CRC-verified and persisted this object before handing
    // out its location; the raw read still re-validates the header.
    const Expected<Bytes> raw_obj = co_await read_object(
        resp.object_off, kv::ObjectLayout::total_size(resp.klen, resp.vlen),
        analysis::Guard::kMetaRevalidate, "forca.get.object_read");
    if (!raw_obj) co_return raw_obj.status();
    co_return decode_object(*raw_obj, resp.klen, resp.vlen, key_hash);
  }
};

}  // namespace

std::unique_ptr<KvClient> ForcaStore::make_client(ClientOptions options) {
  return std::make_unique<ForcaClient>(*this, options);
}

// ===================================================================== RPC

sim::Task<void> RpcStore::handle(rdma::InboundMessage msg) {
  co_await charge(config_.recv_cost());
  rpc::ParsedRequest req = rpc::parse_request(msg);
  if (req.opcode == kPutInline) {
    const PutInlineRequest put = PutInlineRequest::decode(req.args);
    StatusCode status = StatusCode::kOk;
    SimDuration cost = config_.cpu.rpc_inline_extra_ns;
    const Expected<std::size_t> slot =
        claim_slot(kv::hash_key(put.key), cost);
    if (!slot) {
      EFAC_NO_CLAIM("rpc.put.bucket_full");
      status = slot.code();
    } else {
      const kv::HashDir::Entry entry = dir_.read(*slot);
      // The CRC is kept for recovery checks.
      const AllocRequest alloc = alloc_request(put.key, put.value);
      const Expected<MemOffset> off =
          stage_at(pool_a(), alloc, entry.current(), /*persist=*/false, cost);
      if (!off) {
        EFAC_NO_CLAIM("rpc.put.out_of_space");
        status = StatusCode::kOutOfSpace;
      } else {
        const std::size_t total =
            kv::ObjectLayout::total_size(put.key.size(), put.value.size());
        // The server copies the payload from network buffers into NVM and
        // persists everything before replying — the classic RPC path.
        arena_->store(
            *off + kv::ObjectLayout::kHeaderSize + put.key.size(), put.value);
        arena_->flush(*off, total);
        // Flush issued; fence cost charged with `cost` before the reply.
        EFAC_PERSISTS("rpc.put.flush_fence");
        ++stats_.persists;
        point_entry(*slot, entry, *off);
        dir_.persist(*slot);
        cost += config_.cpu.memcpy_cost(put.value.size()) +
                arena_->cost().store_cost(put.value.size()) +
                arena_->cost().flush_cost(total) +
                arena_->cost().flush_cost(kv::HashDir::kEntrySize) +
                arena_->cost().fence_ns;
        // The OK reply promises the whole object persisted server-side.
        assert_object_durable(checker_.get(), *off, total, "rpc.put_ack");
      }
    }
    co_await charge(cost + config_.cpu.send_post_ns);
    EFAC_ACK_SITE("rpc.put_ack");
    reply(req, encode_status(status));

  } else if (req.opcode == kGetInline) {
    const GetLocRequest get = GetLocRequest::decode(req.args);
    const std::uint64_t key_hash = kv::hash_key(get.key);
    std::size_t probes = 0;
    ValueResponse resp;
    resp.status = StatusCode::kNotFound;
    const Expected<std::size_t> slot = dir_.find(key_hash, &probes);
    SimDuration cost = probes * config_.cpu.hash_probe_ns;
    if (slot) {
      const kv::HashDir::Entry entry = dir_.read(*slot);
      if (entry.current() != 0) {
        kv::ObjectRef obj{*arena_, entry.current()};
        const kv::ObjectMeta meta = obj.read_header();
        if (object_span_ok(entry.current(), meta) && meta.valid &&
            meta.key_hash == key_hash) {
          resp.status = StatusCode::kOk;
          resp.value = obj.read_value(meta.klen, meta.vlen);
          cost += arena_->cost().load_cost(meta.vlen) +
                  config_.cpu.memcpy_cost(meta.vlen);
        }
      }
    }
    co_await charge(cost + config_.cpu.send_post_ns);
    reply(req, resp.encode());
  } else {
    EFAC_UNREACHABLE("RPC store: unexpected opcode");
  }
}

namespace {

class RpcStoreClient final : public ProtocolClient {
 public:
  RpcStoreClient(RpcStore& store, const ClientOptions& options)
      : ProtocolClient(store, options, /*charge_crc=*/false) {}

  sim::Task<Status> put_attempt(Bytes key, Bytes value) override {
    ++stats_.puts;
    TRACE_SPAN(tracer_, "put.total");
    PutInlineRequest req;
    req.key = std::move(key);
    req.value = std::move(value);
    metrics::Span rpc_span{tracer_, "put.rpc"};
    const Expected<Bytes> raw = co_await conn_.call_timeout(
        kPutInline, req.encode(), options_.retry.rpc_timeout_ns);
    rpc_span.finish();
    if (!raw) co_return raw.status();
    co_return Status{decode_status(*raw)};
  }

  sim::Task<Expected<Bytes>> get_attempt(Bytes key) override {
    ++stats_.gets;
    note_get_path(trace::GetPath::kRpcOnlyMode);
    TRACE_SPAN(tracer_, "get.total");
    GetLocRequest req;
    req.key = std::move(key);
    metrics::Span rpc_span{tracer_, "get.rpc"};
    const Expected<Bytes> raw = co_await conn_.call_timeout(
        kGetInline, req.encode(), options_.retry.rpc_timeout_ns);
    rpc_span.finish();
    if (!raw) co_return raw.status();
    ValueResponse resp = ValueResponse::decode(*raw);
    if (resp.status != StatusCode::kOk) co_return Status{resp.status};
    co_return std::move(resp.value);
  }
};

}  // namespace

std::unique_ptr<KvClient> RpcStore::make_client(ClientOptions options) {
  return std::make_unique<RpcStoreClient>(*this, options);
}

// ================================================================= InPlace

sim::Task<void> InPlaceStore::handle(rdma::InboundMessage msg) {
  co_await charge(config_.recv_cost());
  rpc::ParsedRequest req = rpc::parse_request(msg);
  EFAC_CHECK_MSG(req.opcode == kAlloc, "InPlace: unexpected opcode");
  const AllocRequest alloc = AllocRequest::decode(req.args);
  SimDuration cost = 0;
  AllocResponse resp;
  const Expected<std::size_t> slot = claim_slot(kv::hash_key(alloc.key), cost);
  if (!slot) {
    resp.status = slot.code();
  } else {
    const kv::HashDir::Entry entry = dir_.read(*slot);
    const MemOffset existing = entry.current();
    bool reuse = false;
    if (existing != 0) {
      const kv::ObjectMeta meta =
          kv::ObjectRef{*arena_, existing}.read_header();
      reuse = meta.klen == alloc.klen && meta.vlen == alloc.vlen;
    }
    if (reuse) {
      // In-place overwrite: hand back the SAME region. Refresh the
      // header's CRC/timestamp (unflushed, like everything else here).
      kv::ObjectRef obj{*arena_, existing};
      kv::ObjectMeta meta = obj.read_header();
      meta.crc = alloc.crc;
      meta.write_time = sim_.now();
      obj.write_header(meta);
      cost += arena_->cost().store_cost(kv::ObjectLayout::kHeaderSize);
      resp.object_off = existing;
    } else {
      // No version chain: the new object links to nothing.
      const Expected<MemOffset> off =
          stage_at(pool_a(), alloc, /*pre_ptr=*/0, /*persist=*/false, cost);
      if (!off) {
        resp.status = off.code();
      } else {
        point_entry(*slot, entry, *off);
        resp.object_off = *off;
      }
    }
  }
  co_await charge(cost + config_.cpu.send_post_ns);
  reply(req, resp.encode());
}

namespace {

class InPlaceClient final : public TwoReadClient {
 public:
  InPlaceClient(InPlaceStore& store, const ClientOptions& options)
      : TwoReadClient(store, options, analysis::Guard::kDeclaredRacy,
                      "inplace.get.entry_read", "inplace.get.object_read") {}

  sim::Task<Status> put_attempt(Bytes key, Bytes value) override {
    ++stats_.puts;
    TRACE_SPAN(tracer_, "put.total");
    const AllocRequest req = alloc_request(key, value);  // recovery only
    const Expected<AllocResponse> resp = co_await alloc_rpc(req);
    if (!resp) co_return resp.status();
    // The overwrite lands on the LIVE bytes: a crash mid-flight tears the
    // only copy of this value, and concurrent writers of the same key
    // race by construction — the failure mode this system exists to show.
    analysis::AccessGuard write_guard(
        checker_, analysis::Guard::kDeclaredRacy, "inplace.put.overwrite");
    co_return co_await write_value(resp->object_off, key.size(), value);
  }
};

}  // namespace

std::unique_ptr<KvClient> InPlaceStore::make_client(ClientOptions options) {
  return std::make_unique<InPlaceClient>(*this, options);
}

// ====================================================================== CA

sim::Task<void> CaStore::handle(rdma::InboundMessage msg) {
  co_await charge(config_.recv_cost());
  rpc::ParsedRequest req = rpc::parse_request(msg);
  EFAC_CHECK_MSG(req.opcode == kAlloc, "CA: unexpected opcode");
  SimDuration cost = 0;
  const Expected<StagedObject> staged =
      stage_object(AllocRequest::decode(req.args), cost);
  if (staged) {
    // No persistence, no ordering: metadata exposed before data lands.
    point_entry(staged->slot, staged->entry, staged->off);
  }
  const AllocResponse resp = alloc_reply(staged);
  co_await charge(cost + config_.cpu.send_post_ns);
  reply(req, resp.encode());
}

std::unique_ptr<KvClient> CaStore::make_client(ClientOptions options) {
  return std::make_unique<TwoReadClient>(*this, options,
                                         analysis::Guard::kDeclaredRacy,
                                         "ca.get.entry_read",
                                         "ca.get.object_read");
}

}  // namespace efac::stores
