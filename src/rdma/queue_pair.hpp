// Reliable-connected queue pair: the client's handle for issuing verbs at a
// target node.
//
// Timing is computed analytically at post time from the Fabric constants:
//
//   t_issue   = now + post_overhead                 (requester CPU)
//   t_depart  = max(t_issue, previous departure)    (QP/wire is FIFO)
//   t_on_wire = payload bytes * wire_byte_ns        (serialization)
//   t_arrive  = t_depart + t_on_wire + one_way + nic_process
//   t_done    = t_arrive + one_way + completion     (+ response bytes for READ)
//
// Per-QP ordering is enforced the way an RC QP does: execution at the
// responder follows posting order (arrivals are monotonic). WRITE payloads
// are handed to the target arena as a chunked DMA placement spanning the
// wire interval, so concurrent readers and crashes see partial objects.
//
// post_write() is the fire-and-forget form used by SAW: it performs all
// bookkeeping immediately and returns the completion instant without
// suspending, so a subsequent send() on the same QP is ordered behind the
// write exactly as ibv_post_send ordering guarantees.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "metrics/metrics.hpp"
#include "rdma/fabric.hpp"
#include "rdma/node.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "trace/event_log.hpp"

namespace efac::rdma {

class QueuePair {
 public:
  /// The QP's verb counters ("qp.*"), resolved once at construction.
  /// stats() hands out a read view; copy a value out before comparing it
  /// with a later one.
  struct Counters {
    explicit Counters(metrics::MetricsRegistry& r)
        : reads(r.counter("qp.reads")),
          read_bytes(r.counter("qp.read_bytes")),
          writes(r.counter("qp.writes")),
          write_bytes(r.counter("qp.write_bytes")),
          sends(r.counter("qp.sends")),
          send_bytes(r.counter("qp.send_bytes")),
          writes_with_imm(r.counter("qp.writes_with_imm")),
          cas_ops(r.counter("qp.cas_ops")),
          commits(r.counter("qp.commits")) {}
    Counters(const Counters&) = delete;
    metrics::Counter& reads;
    metrics::Counter& read_bytes;
    metrics::Counter& writes;
    metrics::Counter& write_bytes;
    metrics::Counter& sends;
    metrics::Counter& send_bytes;
    metrics::Counter& writes_with_imm;
    metrics::Counter& cas_ops;
    metrics::Counter& commits;
  };

  /// `registry` hosts the QP's counters (names "qp.*"); pass the owning
  /// client's registry so verb traffic lands next to client counters.
  /// nullptr → the QP owns a private registry. `recorder` (optional) is a
  /// borrowed pointer to the owning actor's flight recorder; verbs posted
  /// on this QP then emit one kQpVerb event each, tagged with the owner's
  /// current causal op id.
  QueuePair(sim::Simulator& sim, Fabric& fabric, Node& target,
            std::uint64_t qp_id, metrics::MetricsRegistry* registry = nullptr,
            const trace::Recorder* recorder = nullptr)
      : sim_(sim),
        fabric_(fabric),
        target_(target),
        id_(qp_id),
        owned_metrics_(registry == nullptr
                           ? std::make_unique<metrics::MetricsRegistry>()
                           : nullptr),
        metrics_(registry == nullptr ? *owned_metrics_ : *registry),
        rec_(recorder),
        stats_(metrics_) {}
  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] const Counters& stats() const noexcept { return stats_; }
  [[nodiscard]] metrics::MetricsRegistry& metrics() noexcept {
    return metrics_;
  }
  [[nodiscard]] Node& target() noexcept { return target_; }

  /// One-sided READ: snapshot of remote memory taken at arrival instant.
  sim::Task<Expected<Bytes>> read(std::uint32_t rkey, MemOffset offset,
                                  std::size_t length);

  /// Doorbell-coalesced pair of one-sided READs: both WQEs are built and
  /// rung together (the second pays doorbell_entry_ns instead of the full
  /// post_overhead_ns), execute in posting order at the responder, and the
  /// caller resumes once both completions are in — so two dependent-free
  /// snapshots cost one round trip instead of two. Each half fails
  /// independently (translate NAKs don't poison the sibling). This is the
  /// verb pair behind the client's speculative GET: entry and predicted
  /// object are fetched together, and the entry decides afterwards whether
  /// the object snapshot was the right one.
  sim::Task<std::pair<Expected<Bytes>, Expected<Bytes>>> read_pair(
      std::uint32_t rkey1, MemOffset offset1, std::size_t length1,
      std::uint32_t rkey2, MemOffset offset2, std::size_t length2);

  /// One-sided WRITE, awaited to completion (ack received). Completion does
  /// NOT imply durability: the payload sits in the volatile tier (DDIO).
  /// This is the verb an armed fault injector can tear (partial payload,
  /// completion lost) or whose completion it can drop; both surface as
  /// StatusCode::kTimeout after the requester's local grace period.
  sim::Task<Expected<Unit>> write(std::uint32_t rkey, MemOffset offset,
                                  BytesView data);

  /// Fire-and-forget WRITE: posts and returns the completion instant.
  /// Subsequent verbs on this QP execute after it at the responder.
  Expected<SimTime> post_write(std::uint32_t rkey, MemOffset offset,
                               BytesView data);

  /// Fire-and-forget WRITE posted as a non-head entry of a doorbell-
  /// coalesced burst: the WQE was built and linked together with the burst
  /// head, so the per-WR CPU cost is doorbell_entry_ns instead of the full
  /// post_overhead_ns. Wire/NIC/ack timing is unchanged, and per-QP FIFO
  /// ordering still holds, so awaiting the burst's last completion covers
  /// the whole burst.
  Expected<SimTime> post_write_coalesced(std::uint32_t rkey, MemOffset offset,
                                         BytesView data);

  /// Fire-and-forget WRITE_WITH_IMM (optionally doorbell-coalesced):
  /// places the payload, delivers the immediate notification at the
  /// execution instant, and returns the requester-side completion instant
  /// without suspending.
  Expected<SimTime> post_write_with_imm(std::uint32_t rkey, MemOffset offset,
                                        BytesView data, std::uint32_t imm,
                                        bool coalesced = false);

  /// WRITE_WITH_IMM: places the payload, then delivers an immediate
  /// notification (consuming a receive) ordered after the placement.
  sim::Task<Expected<Unit>> write_with_imm(std::uint32_t rkey,
                                           MemOffset offset, BytesView data,
                                           std::uint32_t imm);

  /// Two-sided SEND: payload lands in the target's receive queue.
  /// Completion means the message was delivered (RC ack), not processed.
  sim::Task<void> send(Bytes payload);

  /// Fire-and-forget SEND (used after post_write by SAW).
  void post_send(Bytes payload);

  /// 8-byte remote compare-and-swap; returns the previous value.
  sim::Task<Expected<std::uint64_t>> compare_and_swap(std::uint32_t rkey,
                                                      MemOffset offset,
                                                      std::uint64_t expected,
                                                      std::uint64_t desired);

  /// 8-byte remote fetch-and-add; returns the previous value.
  sim::Task<Expected<std::uint64_t>> fetch_add(std::uint32_t rkey,
                                               MemOffset offset,
                                               std::uint64_t addend);

  /// RDMA Commit (the rcommit verb of the IETF "RDMA Durable Write
  /// Commit" draft the paper's §7.1 discusses): the responder NIC flushes
  /// [offset, offset+length) to the media with NO remote-CPU involvement.
  /// Ordered after prior WRs on this QP; the ack implies durability.
  /// This models proposed hardware — no shipping NIC implements it.
  /// An *awaited* commit() completion is an ordering-equivalent of
  /// flush+fence, so it counts as EFAC_PERSISTS-style persist evidence
  /// under the static contract checker (src/common/contracts.hpp) —
  /// mark the awaiting path accordingly, as rcommit.cpp does.
  sim::Task<Expected<Unit>> commit(std::uint32_t rkey, MemOffset offset,
                                   std::size_t length);

  /// Fire-and-forget commit: returns the completion instant; subsequent
  /// verbs on this QP execute after the flush finishes.
  Expected<SimTime> post_commit(std::uint32_t rkey, MemOffset offset,
                                std::size_t length);

 private:
  struct Timing {
    SimTime depart;        ///< payload starts on the wire
    SimTime arrive;        ///< executed at the responder
    SimTime done;          ///< requester observes the completion
  };

  /// Compute and commit the timeline of the next WR on this QP.
  Timing plan(std::size_t request_payload, std::size_t response_payload);

  /// plan() with an explicit requester CPU cost (doorbell-coalesced burst
  /// entries pay doorbell_entry_ns instead of post_overhead_ns). Draws the
  /// same two jitter samples as plan(), so the fabric RNG stream — and with
  /// it every later verb's timing — is independent of coalescing.
  Timing plan_with_overhead(std::size_t request_payload,
                            std::size_t response_payload,
                            SimDuration post_overhead);

  /// Shared body of post_write / post_write_coalesced.
  Expected<SimTime> post_write_overhead(std::uint32_t rkey, MemOffset offset,
                                        BytesView data,
                                        SimDuration post_overhead);

  /// One flight-recorder event per verb, emitted at post time: `done` is
  /// known analytically from plan(), so no end-event is needed and ring
  /// appends stay in emission order.
  void record_verb(trace::Verb verb, SimTime done, std::size_t bytes) const {
    if (rec_ != nullptr) {
      rec_->emit(trace::EventType::kQpVerb,
                 static_cast<std::uint8_t>(verb),
                 static_cast<std::uint64_t>(done), bytes);
    }
  }

  /// Translate + snapshot one READ's bytes at the current (execution)
  /// instant; shared by read() and read_pair().
  Expected<Bytes> read_snapshot(std::uint32_t rkey, MemOffset offset,
                                std::size_t length);

  /// Deliver a message into the target's receive queue at `when`.
  void deliver_at(SimTime when, InboundMessage message);

  /// deliver_at with the fabric's fault injector consulted first (message
  /// drop / delay / duplication).
  void deliver_message(SimTime when, InboundMessage message);

  /// Slow path of write() taken only when a fault fired for this WR.
  sim::Task<Expected<Unit>> write_faulted(std::uint32_t rkey,
                                          MemOffset offset, BytesView data,
                                          bool torn, bool lost_ack, bool dup);

  sim::Simulator& sim_;
  Fabric& fabric_;
  Node& target_;
  std::uint64_t id_;
  SimTime last_depart_ = 0;
  SimTime last_arrive_ = 0;
  // owned_metrics_ (if any) must be declared before the Counter references
  // in stats_.
  std::unique_ptr<metrics::MetricsRegistry> owned_metrics_;
  metrics::MetricsRegistry& metrics_;
  const trace::Recorder* rec_;
  Counters stats_;
};

}  // namespace efac::rdma
