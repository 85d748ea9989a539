// SEND-based RPC, as every compared system in the paper uses for its
// control path ("SEND-based RPC": client SEND carries the request, server
// SEND carries the response).
//
// Requests ride ordinary two-sided SENDs on the client's QueuePair and land
// in the server node's receive queue as serialized messages:
//
//     [u16 opcode][u64 call_id][u32 len][args bytes]
//
// Server workers pop InboundMessages, parse them with parse_request(), do
// their (virtual-CPU-charged) work, and answer through a Replier, which
// models the reverse path: server post overhead + one-way + payload wire
// time + completion, then fulfils the client's pending-call slot.
//
// The Directory maps qp_id -> client Connection so a Replier constructed
// from a parsed request can find its way back; it stands in for the
// reverse half of the real RC connection.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "rdma/fabric.hpp"
#include "rdma/node.hpp"
#include "rdma/queue_pair.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace efac::rpc {

class Connection;

/// qp_id -> client connection registry (one per simulated cluster).
class Directory {
 public:
  void add(std::uint64_t qp_id, Connection* conn) {
    EFAC_CHECK(conns_.emplace(qp_id, conn).second);
  }
  void remove(std::uint64_t qp_id) { conns_.erase(qp_id); }
  [[nodiscard]] Connection* find(std::uint64_t qp_id) const {
    const auto it = conns_.find(qp_id);
    return it == conns_.end() ? nullptr : it->second;
  }

 private:
  std::unordered_map<std::uint64_t, Connection*> conns_;
};

/// A parsed inbound RPC request.
struct ParsedRequest {
  std::uint16_t opcode = 0;
  std::uint64_t call_id = 0;
  std::uint64_t src_qp = 0;
  Bytes args;
  SimTime arrived_at = 0;
};

/// Parse a SEND payload produced by Connection::call().
[[nodiscard]] ParsedRequest parse_request(const rdma::InboundMessage& msg);

/// Server-side handle for answering one request.
class Replier {
 public:
  Replier(Directory& directory, std::uint64_t qp_id, std::uint64_t call_id)
      : directory_(&directory), qp_id_(qp_id), call_id_(call_id) {}

  /// Send the response payload back to the caller. Models the reverse
  /// network path; the caller's CPU send-post cost must be charged by the
  /// server worker before invoking this.
  void reply(Bytes payload) const;

 private:
  Directory* directory_;
  std::uint64_t qp_id_;
  std::uint64_t call_id_;
};

/// Client-side RPC connection; also exposes the underlying QueuePair for
/// one-sided verbs on the same "connection" (client-active data path).
class Connection {
 public:
  /// `registry` is forwarded to the underlying QueuePair so its "qp.*"
  /// counters land in the owning client's registry (nullptr → private).
  /// `recorder` (optional, borrowed) is likewise forwarded to the QP and
  /// additionally tags each outbound request with a kRpcIssue event, so
  /// the exporter can draw a flow arrow to the server's kRpcDeliver.
  Connection(sim::Simulator& sim, rdma::Fabric& fabric, rdma::Node& server,
             Directory& directory, std::uint64_t qp_id,
             metrics::MetricsRegistry* registry = nullptr,
             const trace::Recorder* recorder = nullptr);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Issue a request and await the response payload. Never times out: if
  /// the request or response is lost (only possible under an armed fault
  /// injector) the caller suspends forever — use call_timeout under fault
  /// plans.
  sim::Task<Bytes> call(std::uint16_t opcode, Bytes args);

  /// Issue a request and await the response, giving up with
  /// StatusCode::kTimeout after `timeout_ns` (0 = wait forever, in which
  /// case this is equivalent to call()). A late response for a timed-out
  /// call is dropped, like a stale completion on a real RC connection.
  sim::Task<Expected<Bytes>> call_timeout(std::uint16_t opcode, Bytes args,
                                          SimDuration timeout_ns);

  /// An RPC whose request is on the wire while the caller overlaps other
  /// verbs — the hedge behind the client's speculative GET. Obtain one
  /// from call_begin(), then either await the response (call_finish) or
  /// walk away (call_abandon: the late response is dropped on arrival,
  /// like any reply to a forgotten call).
  struct PendingCall {
    std::uint64_t call_id = 0;
    std::unique_ptr<sim::OneShot<Expected<Bytes>>> slot;
  };

  /// Post the request (fire-and-forget SEND) and return the pending call.
  /// Every begun call must reach call_finish or call_abandon on EVERY
  /// path, or its response slot leaks — [[nodiscard]] catches the dropped
  /// handle and efac-check rule EFAC004 proves the path balance
  /// (docs/STATIC_ANALYSIS.md).
  [[nodiscard]] PendingCall call_begin(std::uint16_t opcode, Bytes args);
  /// Await a pending call's response with call_timeout() semantics.
  sim::Task<Expected<Bytes>> call_finish(PendingCall call,
                                         SimDuration timeout_ns);
  /// Forget a pending call; its response (if any) is dropped on arrival.
  void call_abandon(PendingCall call);

  [[nodiscard]] rdma::QueuePair& qp() noexcept { return qp_; }
  [[nodiscard]] std::uint64_t qp_id() const noexcept { return qp_.id(); }

  /// Invoked (indirectly, by Replier) when a response has been computed at
  /// the server; models reverse-path latency then fulfils the pending call.
  void deliver_reply(std::uint64_t call_id, Bytes payload);

  /// Number of RPC round trips completed on this connection.
  [[nodiscard]] std::uint64_t calls_completed() const noexcept {
    return calls_completed_;
  }

 private:
  struct Request {
    std::uint64_t call_id;
    Bytes frame;  ///< opcode u16, call id u64, args blob
  };
  /// Frame `args` under the next call id and tag it with kRpcIssue.
  Request open_request(std::uint16_t opcode, const Bytes& args);
  /// Fail `call_id` with kTimeout after `timeout_ns` unless it is answered
  /// or closed first (0 = wait forever).
  void arm_timeout(std::uint64_t call_id, SimDuration timeout_ns);
  /// Unregister an awaited call; count it when it was answered.
  Expected<Bytes> close_call(std::uint64_t call_id, Expected<Bytes> response);

  sim::Simulator& sim_;
  rdma::Fabric& fabric_;
  Directory& directory_;
  rdma::QueuePair qp_;
  const trace::Recorder* rec_;
  std::uint64_t next_call_id_ = 1;
  std::uint64_t calls_completed_ = 0;
  std::unordered_map<std::uint64_t, sim::OneShot<Expected<Bytes>>*> pending_;
};

}  // namespace efac::rpc
