// Fuzz target: the RPC wire-format decoders (src/stores/wire.cpp).
//
// The decoders parse client-controlled bytes on the server's hot path;
// a malformed frame must reject via efac::CheckFailure (ByteReader's
// bounds asserts), never read out of bounds. Each decoded message is
// re-encoded so field values the fuzzer reaches also flow through the
// writers.
//
// Input layout: first byte selects the decoder, the rest is the frame.
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "stores/wire.hpp"

namespace {

using efac::Bytes;
using efac::BytesView;

BytesView frame(const std::uint8_t* data, std::size_t size) {
  return BytesView{data + 1, size - 1};
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 1) return 0;
  using namespace efac::stores;
  const BytesView raw = frame(data, size);
  try {
    switch (data[0] % 10) {
      case 0: {
        const AllocRequest req = AllocRequest::decode(raw);
        (void)req.encode();
        break;
      }
      case 1: {
        const AllocResponse resp = AllocResponse::decode(raw);
        (void)resp.encode();
        break;
      }
      case 2: {
        const BatchAllocRequest req = BatchAllocRequest::decode(raw);
        (void)req.encode();
        break;
      }
      case 3: {
        const BatchAllocResponse resp = BatchAllocResponse::decode(raw);
        (void)resp.encode();
        break;
      }
      case 4: {
        const GetLocRequest req = GetLocRequest::decode(raw);
        (void)req.encode();
        break;
      }
      case 5: {
        const LocResponse resp = LocResponse::decode(raw);
        (void)resp.encode();
        break;
      }
      case 6: {
        const PersistRequest req = PersistRequest::decode(raw);
        (void)req.encode();
        break;
      }
      case 7: {
        const PutInlineRequest req = PutInlineRequest::decode(raw);
        (void)req.encode();
        break;
      }
      case 8: {
        const ValueResponse resp = ValueResponse::decode(raw);
        (void)resp.encode();
        break;
      }
      default:
        (void)decode_status(raw);
        break;
    }
  } catch (const efac::CheckFailure&) {
    // graceful rejection of a malformed frame — the contract
  }
  return 0;
}
