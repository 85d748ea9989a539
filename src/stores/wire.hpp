// RPC opcodes and request/response wire formats shared by all stores.
//
// Every system in the paper's comparison uses "SEND-based RPC" for its
// control path; they differ in *which* calls they make and what the server
// does inside each handler. Keeping one wire format lets all seven systems
// share a code base, as §5.3 requires for the apples-to-apples comparison.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace efac::stores {

enum Opcode : std::uint16_t {
  /// Allocate space for an object; server may or may not index/persist the
  /// metadata depending on the system. -> AllocResponse
  kAlloc = 1,
  /// Ask the server for a verified object location (RPC+RDMA read path).
  /// -> LocResponse
  kGetLoc = 2,
  /// SAW's post-write call: verify arrival, flush, index, persist. -> status
  kPersist = 3,
  /// Full-service PUT with inline payload (RPC baseline). -> status
  kPutInline = 4,
  /// Full-service GET with inline response (RPC baseline). -> ValueResponse
  kGetInline = 5,
  /// Delete a key (eFactory: appends a tombstone version). -> status
  kDelete = 6,
  /// Batch-reserve: allocate space for a whole batch of objects in one
  /// round trip (eFactory/IMM/Erda alloc paths). -> BatchAllocResponse
  kAllocBatch = 7,
};

struct AllocRequest {
  std::uint32_t klen = 0;
  std::uint32_t vlen = 0;
  std::uint32_t crc = 0;  ///< CRC of the value the client will write
  Bytes key;

  [[nodiscard]] Bytes encode() const;
  static AllocRequest decode(BytesView raw);
};

struct AllocResponse {
  StatusCode status = StatusCode::kOk;
  MemOffset object_off = 0;  ///< absolute arena offset of the object start
  std::uint32_t token = 0;   ///< IMM: immediate value to carry in the write
  MemOffset entry_off = 0;   ///< Rcommit: arena offset of the hash entry

  [[nodiscard]] Bytes encode() const;
  static AllocResponse decode(BytesView raw);
};

/// kAllocBatch: one shared alloc RPC reserving log space for every object
/// in a client batch. Items are independent — the server allocates each on
/// its own and reports per-item outcomes, so one full bucket or exhausted
/// pool fails only the items it affects.
struct BatchAllocRequest {
  std::vector<AllocRequest> items;

  [[nodiscard]] Bytes encode() const;
  static BatchAllocRequest decode(BytesView raw);
};

struct BatchAllocResponse {
  std::vector<AllocResponse> items;  ///< same order as the request

  [[nodiscard]] Bytes encode() const;
  static BatchAllocResponse decode(BytesView raw);
};

struct GetLocRequest {
  Bytes key;

  [[nodiscard]] Bytes encode() const;
  static GetLocRequest decode(BytesView raw);
};

struct LocResponse {
  StatusCode status = StatusCode::kOk;
  MemOffset object_off = 0;
  std::uint32_t klen = 0;
  std::uint32_t vlen = 0;

  [[nodiscard]] Bytes encode() const;
  static LocResponse decode(BytesView raw);
};

struct PersistRequest {
  MemOffset object_off = 0;
  std::uint32_t klen = 0;
  std::uint32_t vlen = 0;

  [[nodiscard]] Bytes encode() const;
  static PersistRequest decode(BytesView raw);
};

struct PutInlineRequest {
  Bytes key;
  Bytes value;

  [[nodiscard]] Bytes encode() const;
  static PutInlineRequest decode(BytesView raw);
};

struct ValueResponse {
  StatusCode status = StatusCode::kOk;
  Bytes value;

  [[nodiscard]] Bytes encode() const;
  static ValueResponse decode(BytesView raw);
};

/// One-byte status response for kPersist / kPutInline.
[[nodiscard]] Bytes encode_status(StatusCode status);
[[nodiscard]] StatusCode decode_status(BytesView raw);

}  // namespace efac::stores
