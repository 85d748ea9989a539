// Shared protocol steps: the fragments every system's PUT/GET is built
// from (paper §5.3: "all implementations on the same code base").
//
// A system is a composition of these steps plus its own policy — which
// index update happens when, and what (if anything) is persisted before
// the ack. docs/PROTOCOLS.md has the system × step table.
//
//   client side (ProtocolClient)          server side (DirStore, free fns)
//   ---------------------------------     ---------------------------------
//   alloc_request / batch_request         claim_slot → stage_object
//   crc_pass      "put.crc"               (find_or_claim → allocate →
//   alloc_rpc     "put.alloc_rpc"          place_object_metadata)
//   batch_alloc_rpc                       reserve_each   kAllocBatch body
//   write_value   "put.data_write"        persist_and_index  flush, fence,
//   write_burst   coalesced WRITE burst                  then index entry
//   probe_entry   "get.entry_read" ≤16    collect_versions   version walk
//   read_object   "get.object_read"       recover_newest     post-crash GET
//   decode_object (plain CPU)
//
// ProtocolClient composes the client steps into the two client-active
// PUTs the systems share (the CRC pass only where the system charges it):
//
//   put_attempt        [crc_pass] → alloc_request → alloc_rpc → write_value
//   put_batch_attempt  [crc_pass] → batch_request → batch_alloc_rpc
//                      → write_burst
//
// Request building, offset math and decoding are plain functions; only
// steps that actually suspend are sim::Tasks. Steps take data, never a
// system identity: extra per-system work (sanitizer guard kinds and site
// labels, the probe to start from, whether the CRC pass is charged) is
// passed in as a parameter or done by the caller around the step.
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "analysis/checker.hpp"
#include "common/bytes.hpp"
#include "common/status.hpp"
#include "kv/hash_dir.hpp"
#include "metrics/trace.hpp"
#include "rpc/rpc.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "stores/kv_client.hpp"
#include "stores/store_base.hpp"
#include "stores/wire.hpp"

namespace efac::stores {

// ================================================================= client

/// Alloc request for one PUT. The CRC rides along whether or not the
/// system verifies it (recovery re-verifies every candidate by CRC).
[[nodiscard]] AllocRequest alloc_request(const Bytes& key, const Bytes& value);

/// Validate a raw one-sided object snapshot against the expected identity
/// and extract the value. Pure CPU — no verbs. A valid tombstone answers
/// kNotFound "deleted" and sets *tombstoned (server-written and persisted
/// before being indexed, so it is conclusive even without the flag); with
/// `require_flag` an unset durability flag answers kUnavailable.
[[nodiscard]] Expected<Bytes> decode_object(const Bytes& raw, std::size_t klen,
                                            std::size_t vlen,
                                            std::uint64_t expect_hash,
                                            bool require_flag = false,
                                            bool* tombstoned = nullptr);

/// `co_await` charges `cost` of client CPU under a span — a plain awaiter,
/// so the CRC pass adds no coroutine frame to the PUT path.
struct SpannedDelay {
  metrics::Span span;
  sim::DelayAwaiter delay;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { delay.await_suspend(h); }
  void await_resume() {
    const metrics::Span closing = std::move(span);  // records at scope exit
  }
};

/// Client chassis: the store, one RPC connection (whose QP carries every
/// one-sided verb), the client protocol steps, and the client-active PUTs
/// the steps compose into.
class ProtocolClient : public KvClient {
 protected:
  /// `charge_crc`: the system charges the client's CRC pass ("put.crc")
  /// on its PUTs (eFactory, Erda, Forca). Without it the CRC still rides
  /// in the alloc request, free of virtual time, for recovery checks.
  ProtocolClient(StoreBase& store, const ClientOptions& options,
                 bool charge_crc);

  /// The client-active PUT: count it, run the CRC pass if charged, one
  /// alloc RPC for the object, then a one-sided WRITE of the value into
  /// it. Completion of the WRITE is the ack; durability is the server
  /// policy's business.
  sim::Task<Status> put_attempt(Bytes key, Bytes value) override;

  /// The batch-reserve PUT (systems whose has_batch_put() is true): one
  /// CRC pass over every member if charged, one kAllocBatch RPC reserving
  /// every member, then one doorbell-coalesced burst of value WRITEs.
  sim::Task<std::vector<Status>> put_batch_attempt(
      std::vector<PutOp>& ops,
      const std::vector<std::uint32_t>& op_ids) override;

  /// Pool-relative remote offset of absolute arena offset `off`.
  [[nodiscard]] MemOffset pool_off(MemOffset off) noexcept {
    return off - store_.pool_a().base();
  }
  /// Pool-relative remote offset of the value bytes of the object at
  /// `object_off` whose key is `klen` bytes long.
  [[nodiscard]] MemOffset value_off(MemOffset object_off,
                                    std::size_t klen) noexcept {
    return pool_off(object_off + kv::ObjectLayout::kHeaderSize + klen);
  }

  /// One kAlloc round trip ("put.alloc_rpc"). A non-OK server status is
  /// the error; on success the op is bound to its object (kObjBind).
  sim::Task<Expected<AllocResponse>> alloc_rpc(const AllocRequest& req);

  /// One-sided WRITE of `value` into the object at `object_off`, awaited
  /// to completion ("put.data_write"). Completion is not durability.
  sim::Task<Status> write_value(MemOffset object_off, std::size_t klen,
                                BytesView value);

  /// Batch-reserve request: one alloc item per member, each counted as a
  /// PUT.
  [[nodiscard]] BatchAllocRequest batch_request(const std::vector<PutOp>& ops);

  /// One kAllocBatch round trip ("put.alloc_rpc") reserving every member;
  /// per-member outcomes are in the response items, in request order.
  sim::Task<Expected<BatchAllocResponse>> batch_alloc_rpc(
      const BatchAllocRequest& breq);

  /// Client-side linear probing over a HashDir: READ entries from probe
  /// `first_probe` past the key's ideal slot ("get.entry_read" each; 16
  /// probes at most, counted from the ideal slot) until the key's entry or
  /// an empty slot. Entries race with index updates and are validated by
  /// key hash before they are trusted (kMetaRevalidate at `site`).
  /// kNotFound when the key has no current version within the limit.
  sim::Task<Expected<kv::HashDir::Entry>> probe_entry(
      kv::HashDir& dir, std::uint64_t key_hash, const char* site,
      std::size_t first_probe = 0);

  /// One-sided READ of a whole object at absolute offset `off`
  /// ("get.object_read"), under the caller's sanitizer guard for how the
  /// read tolerates racing writers.
  sim::Task<Expected<Bytes>> read_object(MemOffset off, std::size_t total,
                                         analysis::Guard guard,
                                         const char* site);

  StoreBase& store_;
  rpc::Connection conn_;

 private:
  /// The client computes the CRC it embeds in the object ("put.crc").
  [[nodiscard]] SpannedDelay crc_pass(SimDuration cost) {
    return {metrics::Span{tracer_, "put.crc"}, sim::delay(sim_, cost)};
  }

  /// Doorbell-coalesced burst of one-sided value WRITEs for the reserved
  /// members ("put.data_write"): the head WR pays the full post overhead,
  /// later ones only the doorbell; per-QP FIFO ordering means awaiting the
  /// latest completion covers the whole burst. With an armed fault
  /// injector every WRITE is awaited on its own, so each member sees its
  /// own tear/lost-completion outcome. Returns one status per member.
  sim::Task<std::vector<Status>> write_burst(
      std::vector<PutOp>& ops, const std::vector<std::uint32_t>& op_ids,
      const BatchAllocResponse& bresp);

  bool charge_crc_;
};

// ================================================================= server

/// Reserve every member of a kAllocBatch request with `reserve_one` — the
/// batch path's one receive and one reply are the caller's.
template <typename ReserveOne>
[[nodiscard]] BatchAllocResponse reserve_each(BytesView args,
                                              ReserveOne&& reserve_one) {
  const BatchAllocRequest batch = BatchAllocRequest::decode(args);
  BatchAllocResponse out;
  out.items.reserve(batch.items.size());
  for (const AllocRequest& alloc : batch.items) {
    out.items.push_back(reserve_one(alloc));
  }
  return out;
}

/// An object staged for an alloc request: its slot, the entry as read
/// after the claim, and the object's offset.
struct StagedObject {
  std::size_t slot = 0;
  kv::HashDir::Entry entry;
  MemOffset off = 0;
};

/// Alloc-RPC reply for a staged object, or the reserve's error status.
[[nodiscard]] AllocResponse alloc_reply(const Expected<StagedObject>& staged);

/// Chassis of the systems indexed by the flat linear-probing HashDir at
/// the start of the arena (all but Erda), with the shared server steps.
class DirStore : public StoreBase {
 public:
  [[nodiscard]] kv::HashDir& dir() noexcept { return dir_; }

  /// Post-crash lookup: the newest CRC-intact version reachable from the
  /// key's entry (recover_newest).
  [[nodiscard]] Expected<Bytes> recover_get(BytesView key) override;

 protected:
  DirStore(sim::Simulator& sim, StoreConfig config);

  /// Find or claim the key's slot, charging the probes into `cost`.
  Expected<std::size_t> claim_slot(std::uint64_t key_hash, SimDuration& cost);

  /// Allocate the object in `pool` and place its header + key (linked to
  /// `pre_ptr`; flushed iff `persist`); kOutOfSpace when the pool is full.
  Expected<MemOffset> stage_at(kv::DataPool& pool, const AllocRequest& alloc,
                               MemOffset pre_ptr, bool persist,
                               SimDuration& cost);

  /// The common server reserve: claim_slot, then stage the object in pool
  /// A, unflushed, chained to the entry's current version. The reply
  /// status of a failed reserve is the error's code.
  Expected<StagedObject> stage_object(const AllocRequest& alloc,
                                      SimDuration& cost);

  /// Point the slot's entry at `off` as its current (pool A) version.
  void point_entry(std::size_t slot, kv::HashDir::Entry entry, MemOffset off);

  /// Durability point of the systems that ack only after persisting: flush
  /// the whole object, fence, then expose it through the index and persist
  /// the entry. The object is durable on every return; kInternal if the
  /// key's slot is missing. Cost accumulates into `cost`.
  StatusCode persist_and_index(MemOffset off, std::uint64_t key_hash,
                               std::size_t total, const char* site,
                               SimDuration& cost);

  /// The two chain heads a version walk starts from, in walk order.
  [[nodiscard]] virtual std::array<MemOffset, 2> version_heads(
      const kv::HashDir::Entry& entry) const {
    return {entry.off_old, entry.off_new};
  }

  /// Every plausible version reachable from the entry, newest first. The
  /// walk reads each header once and sorts on what it read; the headers
  /// are not handed out, since a caller that suspends between candidates
  /// must read each one again when it gets to it.
  [[nodiscard]] std::vector<MemOffset> collect_versions(
      const kv::HashDir::Entry& entry) const;

  /// Post-crash lookup under the server clock domain with a recovery-scan
  /// guard at `site`: walk the versions newest first; the first valid
  /// CRC-intact one wins, a valid tombstone means deleted.
  [[nodiscard]] Expected<Bytes> recover_newest(BytesView key,
                                               const char* site);

  kv::HashDir dir_;
};

}  // namespace efac::stores
