#include "rpc/rpc.hpp"

namespace efac::rpc {

ParsedRequest parse_request(const rdma::InboundMessage& msg) {
  ByteReader reader{msg.payload};
  ParsedRequest out;
  out.opcode = reader.get_u16();
  out.call_id = reader.get_u64();
  BytesView args = reader.get_blob();
  out.args.assign(args.begin(), args.end());
  out.src_qp = msg.src_qp;
  out.arrived_at = msg.arrived_at;
  return out;
}

void Replier::reply(Bytes payload) const {
  Connection* conn = directory_->find(qp_id_);
  // The client may have torn down (e.g. after an injected crash); dropping
  // the response mirrors what a dead RC connection would do.
  if (conn == nullptr) return;
  conn->deliver_reply(call_id_, std::move(payload));
}

Connection::Connection(sim::Simulator& sim, rdma::Fabric& fabric,
                       rdma::Node& server, Directory& directory,
                       std::uint64_t qp_id,
                       metrics::MetricsRegistry* registry,
                       const trace::Recorder* recorder)
    : sim_(sim),
      fabric_(fabric),
      directory_(directory),
      qp_(sim, fabric, server, qp_id, registry, recorder),
      rec_(recorder) {
  directory_.add(qp_id, this);
}

Connection::~Connection() { directory_.remove(qp_.id()); }

sim::Task<Bytes> Connection::call(std::uint16_t opcode, Bytes args) {
  Expected<Bytes> response =
      co_await call_timeout(opcode, std::move(args), /*timeout_ns=*/0);
  // Without a timeout the slot is only ever fulfilled with a payload.
  EFAC_CHECK(response.has_value());
  co_return std::move(response).take();
}

Connection::Request Connection::open_request(std::uint16_t opcode,
                                             const Bytes& args) {
  Request req{next_call_id_++, {}};
  ByteWriter writer{args.size() + 16};
  writer.put_u16(opcode);
  writer.put_u64(req.call_id);
  writer.put_blob(args);
  req.frame = std::move(writer).take();
  if (rec_ != nullptr) {
    rec_->emit(trace::EventType::kRpcIssue,
               static_cast<std::uint8_t>(opcode), req.call_id, qp_.id());
  }
  return req;
}

void Connection::arm_timeout(std::uint64_t call_id, SimDuration timeout_ns) {
  if (timeout_ns == 0) return;
  sim_.call_after(timeout_ns, [this, call_id] {
    const auto it = pending_.find(call_id);
    // Already answered (possibly in this very instant) or already torn
    // down: the timer is stale.
    if (it == pending_.end() || it->second->ready()) return;
    it->second->set(Status{StatusCode::kTimeout, "rpc timeout"});
  });
}

Expected<Bytes> Connection::close_call(std::uint64_t call_id,
                                       Expected<Bytes> response) {
  pending_.erase(call_id);
  if (response.has_value()) ++calls_completed_;
  return response;
}

sim::Task<Expected<Bytes>> Connection::call_timeout(std::uint16_t opcode,
                                                    Bytes args,
                                                    SimDuration timeout_ns) {
  Request req = open_request(opcode, args);
  sim::OneShot<Expected<Bytes>> slot{sim_};
  pending_.emplace(req.call_id, &slot);
  arm_timeout(req.call_id, timeout_ns);
  co_await qp_.send(std::move(req.frame));
  co_return close_call(req.call_id, co_await slot.wait());
}

Connection::PendingCall Connection::call_begin(std::uint16_t opcode,
                                               Bytes args) {
  Request req = open_request(opcode, args);
  PendingCall call;
  call.call_id = req.call_id;
  call.slot = std::make_unique<sim::OneShot<Expected<Bytes>>>(sim_);
  pending_.emplace(call.call_id, call.slot.get());
  // Fire-and-forget: the request departs through the QP FIFO like any
  // send(), but the caller keeps running — that head start is the point.
  qp_.post_send(std::move(req.frame));
  return call;
}

sim::Task<Expected<Bytes>> Connection::call_finish(PendingCall call,
                                                   SimDuration timeout_ns) {
  if (!call.slot->ready()) arm_timeout(call.call_id, timeout_ns);
  co_return close_call(call.call_id, co_await call.slot->wait());
}

void Connection::call_abandon(PendingCall call) {
  // Unregistering makes deliver_reply drop the response on arrival; the
  // slot dies with `call`.
  pending_.erase(call.call_id);
}

void Connection::deliver_reply(std::uint64_t call_id, Bytes payload) {
  SimDuration fault_extra = 0;
  if (fault::Injector* inj = fabric_.injector();
      inj != nullptr && inj->enabled()) {
    if (inj->fire(fault::Site::kRespDrop)) return;
    if (inj->fire(fault::Site::kRespDelay)) {
      fault_extra = inj->spec(fault::Site::kRespDelay).delay_ns;
    }
  }
  const rdma::FabricConfig& cfg = fabric_.config();
  // Reverse path: one-way + response serialization + requester completion.
  // The server's CPU cost of posting the SEND is charged by the server
  // worker (it is part of the handler's service time), not here.
  const SimDuration latency = fabric_.one_way() +
                              cfg.wire_cost(payload.size()) +
                              cfg.completion_ns + fault_extra;
  sim_.call_after(latency, [this, call_id, p = std::move(payload)]() mutable {
    const auto it = pending_.find(call_id);
    // Late replies for calls that no longer exist are dropped (client gave
    // up / crashed); mirrors a stale completion. A call already fulfilled
    // in this instant (duplicate reply, or a racing timeout) is left alone.
    if (it == pending_.end() || it->second->ready()) return;
    it->second->set(Expected<Bytes>{std::move(p)});
  });
}

}  // namespace efac::rpc
