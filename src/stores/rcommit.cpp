#include "stores/rcommit.hpp"

#include "common/contracts.hpp"

namespace efac::stores {

RcommitStore::RcommitStore(sim::Simulator& sim, StoreConfig config)
    : DirStore(sim, config) {
  // The index MR from StoreBase is read-only; clients updating entry head
  // words one-sided need a writable window over the same region.
  entry_rkey_ = node_->register_mr(
      0, kv::HashDir::bytes_required(config_.hash_buckets),
      rdma::Access::kReadWrite);
}

sim::Task<void> RcommitStore::handle(rdma::InboundMessage msg) {
  co_await charge(config_.recv_cost());
  rpc::ParsedRequest req = rpc::parse_request(msg);
  EFAC_CHECK_MSG(req.opcode == kAlloc, "Rcommit: unexpected opcode");
  const AllocRequest alloc = AllocRequest::decode(req.args);
  const bool already_known = dir_.find(kv::hash_key(alloc.key)).has_value();
  SimDuration cost = 0;
  // Header staged (unflushed — the client's COMMIT covers the whole
  // object range).
  const Expected<StagedObject> staged = stage_object(alloc, cost);
  AllocResponse resp = alloc_reply(staged);
  if (staged) {
    // A *newly claimed* key_hash word is persisted so recovery probing
    // works even if the client dies before its first commit; overwrites
    // skip it (the hash word is already durable).
    if (!already_known) {
      dir_.persist(staged->slot);
      cost += arena_->cost().flush_cost(kv::HashDir::kEntrySize) +
              arena_->cost().fence_ns;
    }
    resp.entry_off = dir_.entry_offset(staged->slot);
  }
  co_await charge(cost + config_.cpu.send_post_ns);
  reply(req, resp.encode());
}

namespace {

class RcommitClient final : public ProtocolClient {
 public:
  RcommitClient(RcommitStore& store, const ClientOptions& options)
      : ProtocolClient(store, options, /*charge_crc=*/false),
        rcommit_(store) {}

  sim::Task<Status> put_attempt(Bytes key, Bytes value) override {
    ++stats_.puts;
    TRACE_SPAN(tracer_, "put.total");
    const AllocRequest req = alloc_request(key, value);  // recovery only
    const Expected<AllocResponse> resp = co_await alloc_rpc(req);
    if (!resp) co_return resp.status();

    // Pipelined one-sided chain; RC ordering serializes the four WRs.
    rdma::QueuePair& qp = conn_.qp();
    const std::size_t total =
        kv::ObjectLayout::total_size(key.size(), value.size());
    const Expected<SimTime> w1 = qp.post_write(
        store_.pool_rkey(), value_off(resp->object_off, key.size()), value);
    if (!w1) co_return w1.status();
    const Expected<SimTime> c1 =
        qp.post_commit(store_.pool_rkey(), pool_off(resp->object_off), total);
    if (!c1) co_return c1.status();
    // Metadata: flip the entry's head-offset word (off_old, +8 into the
    // entry) and commit it — durable, ordered after the data commit. The
    // 8-byte head word is the RDMA/NVM atomicity unit: concurrent
    // same-key committers race on it last-writer-wins by design.
    std::uint8_t head_word[8];
    store_u64_le(head_word, resp->object_off);
    const MemOffset word_off = resp->entry_off + 8;
    {
      analysis::AccessGuard head_guard(
          checker_, analysis::Guard::kAtomicWord, "rcommit.put.head_word");
      const Expected<SimTime> w2 = qp.post_write(
          rcommit_.entry_rkey(), word_off, BytesView{head_word, 8});
      if (!w2) co_return w2.status();
    }
    // The awaited tail of the WRITE→COMMIT→WRITE→COMMIT pipeline: its
    // duration is the durability wait the rcommit verb buys down.
    metrics::Span commit_span{tracer_, "put.commit_chain"};
    const Expected<Unit> c2 =
        co_await qp.commit(rcommit_.entry_rkey(), word_off, 8);
    commit_span.finish();
    // Commit completion is the durability promise: RC ordering placed the
    // data COMMIT (c1) before this one, so the whole object is persisted.
    if (c2.has_value()) {
      EFAC_PERSISTS("rcommit.put.commit_chain");
      assert_object_durable(checker_, resp->object_off, total,
                            "rcommit.put.commit");
    }
    co_return c2.status();
  }

  sim::Task<Expected<Bytes>> get_attempt(Bytes key) override {
    ++stats_.gets;
    TRACE_SPAN(tracer_, "get.total");
    const std::uint64_t key_hash = kv::hash_key(key);
    // Entry reads race with server claims and other clients' head-word
    // commits; probe_entry validates them against the key hash.
    const Expected<kv::HashDir::Entry> entry = co_await probe_entry(
        rcommit_.dir(), key_hash, "rcommit.get.entry_read");
    if (!entry) co_return entry.status();
    // The head word flips only after the data COMMIT, so a located object
    // is complete; the header is still re-validated before use.
    const Expected<Bytes> raw_obj = co_await read_object(
        entry->current(), kv::ObjectLayout::total_size(klen_hint_, vlen_hint_),
        analysis::Guard::kMetaRevalidate, "rcommit.get.object_read");
    if (!raw_obj) co_return raw_obj.status();
    Expected<Bytes> value =
        decode_object(*raw_obj, klen_hint_, vlen_hint_, key_hash);
    if (!value) co_return value.status();
    note_get_path(trace::GetPath::kFastOneSided);
    co_return value;
  }

 private:
  RcommitStore& rcommit_;
};

}  // namespace

std::unique_ptr<KvClient> RcommitStore::make_client(ClientOptions options) {
  return std::make_unique<RcommitClient>(*this, options);
}

}  // namespace efac::stores
