// EFAC003: optional wire tails must be feature-gated and append-only —
// a tail written unconditionally changes every client's wire size, and a
// fixed field after a sometimes-present tail shifts its own offset.
// Shape: an optional trailing timestamp done wrong.
#include "common/contracts.hpp"

struct ByteWriter {
  void put_u8(unsigned char v);
  void put_u32(unsigned int v);
  void put_u64(unsigned long v);
};

void encode_ungated_tail(ByteWriter& w, unsigned long eta) {
  w.put_u32(7);
  // not inside any conditional and no exhaustion guard:
  EFAC_WIRE_TAIL("fixture.ungated");  // EXPECT: EFAC003
  w.put_u64(eta);
}

void encode_field_after_tail(ByteWriter& w, bool carry, unsigned long eta) {
  w.put_u32(7);
  if (carry) {
    EFAC_WIRE_TAIL("fixture.gated_eta");
    w.put_u64(eta);
  }
  // fixed-layout field AFTER the optional tail: its wire offset now
  // depends on `carry`
  w.put_u8(1);  // EXPECT: EFAC003
}

void encode_tail_done_right(ByteWriter& w, bool carry, unsigned long eta) {
  w.put_u32(7);
  w.put_u8(1);
  if (carry) {
    EFAC_WIRE_TAIL("fixture.good_eta");
    w.put_u64(eta);
  }
}
