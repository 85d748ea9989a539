#include "stores/protocol_steps.hpp"

#include "common/contracts.hpp"

#include <algorithm>

namespace efac::stores {

namespace {

/// Version-chain walk bound: guards against cycles from torn pointers.
constexpr int kMaxChain = 32;

/// Entries a client probes past a key's ideal slot before giving up, as
/// open-addressed RDMA-KV clients do.
constexpr std::size_t kClientProbeLimit = 16;

}  // namespace

// ================================================================= client

AllocRequest alloc_request(const Bytes& key, const Bytes& value) {
  AllocRequest req;
  req.klen = static_cast<std::uint32_t>(key.size());
  req.vlen = static_cast<std::uint32_t>(value.size());
  // Computing the CRC here is free of virtual time; systems that verify
  // it charge their own CRC pass (crc_pass / server-side verification).
  req.crc = kv::object_crc(kv::hash_key(key), req.klen, req.vlen, value);
  req.key = key;
  return req;
}

Expected<Bytes> decode_object(const Bytes& raw, std::size_t klen,
                              std::size_t vlen, std::uint64_t expect_hash,
                              bool require_flag, bool* tombstoned) {
  const kv::ObjectMeta meta = kv::ObjectLayout::decode_header(raw);
  if (meta.key_hash == expect_hash && meta.valid && meta.tombstone) {
    if (tombstoned != nullptr) *tombstoned = true;
    return Status{StatusCode::kNotFound, "deleted"};
  }
  if (meta.key_hash != expect_hash || !meta.valid || meta.klen != klen ||
      meta.vlen != vlen) {
    return Status{StatusCode::kNotFound, "object does not match"};
  }
  if (require_flag) {
    const std::uint64_t flag =
        load_u64_le(raw.data() + kv::ObjectLayout::flag_offset(klen, vlen));
    if (flag != 1) {
      return Status{StatusCode::kUnavailable, "not yet durable"};
    }
  }
  return Bytes(raw.begin() + kv::ObjectLayout::kHeaderSize + klen,
               raw.begin() + kv::ObjectLayout::kHeaderSize + klen + vlen);
}

ProtocolClient::ProtocolClient(StoreBase& store, const ClientOptions& options,
                               bool charge_crc)
    : KvClient(store.simulator(), options),
      store_(store),
      conn_(store.simulator(), store.fabric(), store.node(), store.directory(),
            store.next_qp_id(), &metrics_, &recorder_),
      charge_crc_(charge_crc) {}

sim::Task<Status> ProtocolClient::put_attempt(Bytes key, Bytes value) {
  ++stats_.puts;
  TRACE_SPAN(tracer_, "put.total");
  if (charge_crc_) co_await crc_pass(store_.config().crc.cost(value.size()));
  const AllocRequest req = alloc_request(key, value);
  const Expected<AllocResponse> resp = co_await alloc_rpc(req);
  if (!resp) co_return resp.status();
  co_return co_await write_value(resp->object_off, key.size(), value);
}

sim::Task<std::vector<Status>> ProtocolClient::put_batch_attempt(
    std::vector<PutOp>& ops, const std::vector<std::uint32_t>& op_ids) {
  TRACE_SPAN(tracer_, "put_batch.total");
  if (charge_crc_) {
    SimDuration cost = 0;
    for (const PutOp& op : ops) {
      cost += store_.config().crc.cost(op.value.size());
    }
    co_await crc_pass(cost);
  }
  const BatchAllocRequest breq = batch_request(ops);
  const Expected<BatchAllocResponse> bresp = co_await batch_alloc_rpc(breq);
  if (!bresp) co_return std::vector<Status>(ops.size(), bresp.status());
  co_return co_await write_burst(ops, op_ids, *bresp);
}

sim::Task<Expected<AllocResponse>> ProtocolClient::alloc_rpc(
    const AllocRequest& req) {
  metrics::Span alloc_span{tracer_, "put.alloc_rpc"};
  const Expected<Bytes> raw = co_await conn_.call_timeout(
      kAlloc, req.encode(), options_.retry.rpc_timeout_ns);
  alloc_span.finish();
  if (!raw) co_return raw.status();
  AllocResponse resp = AllocResponse::decode(*raw);
  if (resp.status != StatusCode::kOk) co_return Status{resp.status};
  // Binds this op to its object offset; the exporter joins it against
  // later events on the same offset (e.g. eFactory's verifier kFlagSet).
  recorder_.emit(trace::EventType::kObjBind, 0, resp.object_off);
  co_return resp;
}

sim::Task<Status> ProtocolClient::write_value(MemOffset object_off,
                                              std::size_t klen,
                                              BytesView value) {
  const MemOffset off = value_off(object_off, klen);
  metrics::Span write_span{tracer_, "put.data_write"};
  const Expected<Unit> wr =
      co_await conn_.qp().write(store_.pool_rkey(), off, value);
  write_span.finish();
  co_return wr.status();
}

BatchAllocRequest ProtocolClient::batch_request(
    const std::vector<PutOp>& ops) {
  BatchAllocRequest breq;
  breq.items.reserve(ops.size());
  for (const PutOp& op : ops) {
    ++stats_.puts;
    breq.items.push_back(alloc_request(op.key, op.value));
  }
  return breq;
}

sim::Task<Expected<BatchAllocResponse>> ProtocolClient::batch_alloc_rpc(
    const BatchAllocRequest& breq) {
  metrics::Span alloc_span{tracer_, "put.alloc_rpc"};
  const Expected<Bytes> raw = co_await conn_.call_timeout(
      kAllocBatch, breq.encode(), options_.retry.rpc_timeout_ns);
  alloc_span.finish();
  if (!raw) co_return raw.status();
  BatchAllocResponse bresp = BatchAllocResponse::decode(*raw);
  EFAC_CHECK_MSG(bresp.items.size() == breq.items.size(),
                 "batch alloc: response/request size mismatch");
  co_return bresp;
}

sim::Task<std::vector<Status>> ProtocolClient::write_burst(
    std::vector<PutOp>& ops, const std::vector<std::uint32_t>& op_ids,
    const BatchAllocResponse& bresp) {
  const bool faultable = store_.injector().enabled();
  std::vector<Status> out(ops.size());
  metrics::Span write_span{tracer_, "put.data_write"};
  SimTime last_done = 0;
  bool head = true;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    recorder_.set_current(op_ids[i]);
    const AllocResponse& resp = bresp.items[i];
    if (resp.status != StatusCode::kOk) {
      out[i] = Status{resp.status};
      continue;
    }
    recorder_.emit(trace::EventType::kObjBind, 0, resp.object_off);
    const MemOffset off = value_off(resp.object_off, ops[i].key.size());
    if (faultable) {
      const Expected<Unit> wr =
          co_await conn_.qp().write(store_.pool_rkey(), off, ops[i].value);
      out[i] = wr.status();
      continue;
    }
    const Expected<SimTime> done =
        head ? conn_.qp().post_write(store_.pool_rkey(), off, ops[i].value)
             : conn_.qp().post_write_coalesced(store_.pool_rkey(), off,
                                               ops[i].value);
    head = false;
    if (!done) {
      out[i] = done.status();
      continue;
    }
    last_done = std::max(last_done, *done);
  }
  recorder_.set_current(op_ids[0]);
  if (last_done > sim_.now()) {
    co_await sim::delay(sim_, last_done - sim_.now());
  }
  write_span.finish();
  co_return out;
}

sim::Task<Expected<kv::HashDir::Entry>> ProtocolClient::probe_entry(
    kv::HashDir& dir, std::uint64_t key_hash, const char* site,
    std::size_t first_probe) {
  analysis::AccessGuard entry_guard(checker_,
                                    analysis::Guard::kMetaRevalidate, site);
  std::size_t slot =
      (dir.ideal_slot(key_hash) + first_probe) & (dir.bucket_count() - 1);
  for (std::size_t probe = first_probe; probe < kClientProbeLimit; ++probe) {
    metrics::Span entry_span{tracer_, "get.entry_read"};
    const Expected<Bytes> raw = co_await conn_.qp().read(
        store_.index_rkey(), dir.entry_offset(slot), kv::HashDir::kEntrySize);
    entry_span.finish();
    if (!raw) co_return raw.status();
    const kv::HashDir::Entry entry = kv::HashDir::decode(*raw);
    if (entry.key_hash == key_hash) {
      if (entry.current() == 0) break;
      co_return entry;
    }
    if (entry.empty()) break;
    slot = (slot + 1) & (dir.bucket_count() - 1);
  }
  co_return Status{StatusCode::kNotFound};
}

sim::Task<Expected<Bytes>> ProtocolClient::read_object(MemOffset off,
                                                       std::size_t total,
                                                       analysis::Guard guard,
                                                       const char* site) {
  analysis::AccessGuard read_guard(checker_, guard, site);
  metrics::Span read_span{tracer_, "get.object_read"};
  Expected<Bytes> raw =
      co_await conn_.qp().read(store_.pool_rkey(), pool_off(off), total);
  read_span.finish();
  co_return raw;
}

// ================================================================= server

AllocResponse alloc_reply(const Expected<StagedObject>& staged) {
  AllocResponse resp;
  if (staged) {
    resp.object_off = staged->off;
  } else {
    resp.status = staged.code();
  }
  return resp;
}

DirStore::DirStore(sim::Simulator& sim, StoreConfig config)
    : StoreBase(sim, config, kv::HashDir::bytes_required(config.hash_buckets)),
      dir_(*arena_, 0, config_.hash_buckets) {}

Expected<std::size_t> DirStore::claim_slot(std::uint64_t key_hash,
                                           SimDuration& cost) {
  std::size_t probes = 0;
  Expected<std::size_t> slot = dir_.find_or_claim(key_hash, &probes);
  cost += probes * config_.cpu.hash_probe_ns;
  return slot;
}

Expected<MemOffset> DirStore::stage_at(kv::DataPool& pool,
                                       const AllocRequest& alloc,
                                       MemOffset pre_ptr, bool persist,
                                       SimDuration& cost) {
  const Expected<MemOffset> off =
      pool.allocate(kv::ObjectLayout::total_size(alloc.klen, alloc.vlen));
  if (!off) return Status{StatusCode::kOutOfSpace};
  cost += place_object_metadata(*off, alloc, pre_ptr, persist);
  return *off;
}

Expected<StagedObject> DirStore::stage_object(const AllocRequest& alloc,
                                              SimDuration& cost) {
  const Expected<std::size_t> slot = claim_slot(kv::hash_key(alloc.key), cost);
  if (!slot) return slot.status();
  StagedObject staged;
  staged.slot = *slot;
  staged.entry = dir_.read(*slot);
  const Expected<MemOffset> off =
      stage_at(pool_a(), alloc, staged.entry.current(), /*persist=*/false,
               cost);
  if (!off) return off.status();
  staged.off = *off;
  return staged;
}

void DirStore::point_entry(std::size_t slot, kv::HashDir::Entry entry,
                           MemOffset off) {
  entry.off_old = off;
  entry.mark = false;
  dir_.write(slot, entry);
}

StatusCode DirStore::persist_and_index(MemOffset off, std::uint64_t key_hash,
                                       std::size_t total, const char* site,
                                       SimDuration& cost) {
  // The object is flushed and fenced before any return (efac-check
  // EFAC002): a kInternal reply claims nothing, an OK one claims exactly
  // what was persisted here.
  EFAC_FN_ESTABLISHES_DURABLE();
  arena_->flush(off, total);
  // Object flush issued here; the fence cost is charged with `cost`
  // before the caller posts its reply, so the ack orders after the drain.
  EFAC_PERSISTS("dir.persist_and_index.flush_fence");
  ++stats_.persists;
  cost += arena_->cost().flush_cost(total) + arena_->cost().fence_ns;
  // Now — and only now — expose the version through the index.
  std::size_t probes = 0;
  const Expected<std::size_t> slot = dir_.find(key_hash, &probes);
  cost += probes * config_.cpu.hash_probe_ns;
  if (!slot) return StatusCode::kInternal;
  point_entry(*slot, dir_.read(*slot), off);
  dir_.persist(*slot);
  cost += arena_->cost().flush_cost(kv::HashDir::kEntrySize) +
          arena_->cost().fence_ns;
  assert_object_durable(checker_.get(), off, total, site);
  return StatusCode::kOk;
}

std::vector<MemOffset> DirStore::collect_versions(
    const kv::HashDir::Entry& entry) const {
  struct Candidate {
    MemOffset off;
    SimTime write_time;
  };
  // The walk reads each header once and keeps its write_time for the sort.
  std::vector<Candidate> found;
  for (const MemOffset head : version_heads(entry)) {
    int depth = 0;
    MemOffset off = head;
    while (off != 0 && depth++ < kMaxChain) {
      if (!header_readable(off)) break;  // garbage pointer: stop the walk
      if (std::any_of(found.begin(), found.end(),
                      [off](const Candidate& c) { return c.off == off; })) {
        break;
      }
      const kv::ObjectMeta meta = kv::ObjectRef{*arena_, off}.read_header();
      if (!object_span_ok(off, meta)) break;
      found.push_back({off, meta.write_time});
      off = meta.pre_ptr;
    }
  }
  // Newest first: chains may interleave across pools during cleaning.
  // Stable, because write_time can tie: members of one batch that write
  // the same key are stamped by the same alloc RPC. The walk order keeps
  // the later member first, since it links to the earlier one.
  std::stable_sort(found.begin(), found.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.write_time > b.write_time;
                   });
  std::vector<MemOffset> out;
  out.reserve(found.size());
  for (const Candidate& c : found) out.push_back(c.off);
  return out;
}

Expected<Bytes> DirStore::recover_newest(BytesView key, const char* site) {
  // Recovery reads arbitrary (possibly torn) bytes left behind by clients;
  // every candidate is CRC-re-verified, which is the recovery-scan guard.
  analysis::ActorScope scope(
      checker_.get(), checker_ != nullptr ? checker_->server_actor() : 0);
  analysis::AccessGuard guard(checker_.get(), analysis::Guard::kRecoveryScan,
                              site);
  const std::uint64_t key_hash = kv::hash_key(key);
  const Expected<std::size_t> slot = dir_.find(key_hash);
  if (!slot) return Status{StatusCode::kNotFound};
  for (const MemOffset off : collect_versions(dir_.read(*slot))) {
    kv::ObjectRef obj{*arena_, off};
    const kv::ObjectMeta meta = obj.read_header();
    if (!meta.valid || meta.key_hash != key_hash) continue;
    if (meta.tombstone) return Status{StatusCode::kNotFound, "deleted"};
    if (obj.verify_crc()) return obj.read_value(meta.klen, meta.vlen);
  }
  return Status{StatusCode::kCorrupt, "no intact version survives"};
}

Expected<Bytes> DirStore::recover_get(BytesView key) {
  return recover_newest(key, "recover.dir_scan");
}

}  // namespace efac::stores
