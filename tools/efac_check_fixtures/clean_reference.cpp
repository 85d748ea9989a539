// Zero-finding reference: every contract pattern done right, in the
// shapes the real tree uses. Any finding in this file is a
// false-positive regression (fixture mode fails on spurious findings).
#include "common/contracts.hpp"

struct Arena {
  void flush(unsigned long off, unsigned long len);
  bool is_dirty(unsigned long off, unsigned long len);
};
struct Obj {
  bool is_durable() const {
    EFAC_FN_OBSERVES_DURABLE();
    return true;
  }
  bool verify_crc() const;
};
struct Replier {
  void reply(int status);
};
struct ByteReader {
  bool exhausted() const;
  unsigned char get_u8();
  unsigned long get_u64();
};

bool establishes_correctly(Arena& arena, Obj& obj, unsigned long off) {
  EFAC_FN_ESTABLISHES_DURABLE();
  if (obj.is_durable()) return true;
  if (!obj.verify_crc()) {
    EFAC_NO_CLAIM("clean.torn");
    return false;
  }
  arena.flush(off, 64);
  EFAC_PERSISTS("clean.flush_fence");
  return true;
}

void requires_correctly(unsigned long off, unsigned long span) {
  EFAC_FN_REQUIRES_DURABLE();
  (void)off;
  (void)span;
}

void ack_via_interprocedural_evidence(Arena& arena, Obj& obj, Replier r) {
  // a plain call of an ESTABLISHES function is claim evidence: every one
  // of its return paths persisted or explicitly claims nothing
  establishes_correctly(arena, obj, 0);
  EFAC_ACK_SITE("clean.ack");
  r.reply(0);
}

void ack_via_branch_evidence(Arena& arena, Obj& obj, Replier r,
                             unsigned long off) {
  if (establishes_correctly(arena, obj, off)) {
    requires_correctly(off, 64);
  } else {
    EFAC_NO_CLAIM("clean.verify_failed");
  }
  EFAC_ACK_SITE("clean.branchy_ack");
  r.reply(0);
}

void ack_via_observed_flag(Obj& obj, Replier r, unsigned long off) {
  if (obj.is_durable()) {
    requires_correctly(off, 64);
    EFAC_ACK_SITE("clean.flag_hit_ack");
    r.reply(0);
  }
}

unsigned long decode_guarded_tail(ByteReader& r) {
  unsigned long eta = 0;
  if (!r.exhausted()) {
    EFAC_WIRE_TAIL("clean.eta");
    eta = r.get_u64();
  }
  return eta;
}

bool decode_comma_guarded_tail(ByteReader& r) {
  // the comma idiom: marker folded into the exhaustion-guarded read
  const bool hint =
      (EFAC_WIRE_TAIL("clean.hint"), !r.exhausted() && r.get_u8() != 0);
  return hint;
}

// A structured binding is not a lambda introducer: this capture-free
// coroutine lambda loops over bindings around a co_await and captures
// nothing (the shape of examples/log_cleaning_demo.cpp).
struct Pairs {};
void bindings_in_coroutine_lambda(Pairs& pairs) {
  auto drain = [](Pairs& m) -> sim::Task<void> {
    for (const auto& [k, version] : m) {
      co_await settle(k, version);
    }
    for (auto&& [k, v] : m) co_await settle(k, v);
  };
  (void)drain;
  (void)pairs;
}
