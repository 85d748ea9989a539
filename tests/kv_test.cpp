// Unit tests for the KV substrate: object layout, data pool allocator,
// hash directory, and Erda's hopscotch table with the 8-byte atomic
// two-version region.
#include <gtest/gtest.h>

#include <set>

#include "checksum/crc32.hpp"
#include "kv/data_pool.hpp"
#include "kv/erda_table.hpp"
#include "kv/hash_dir.hpp"
#include "kv/object.hpp"
#include "sim/simulator.hpp"

namespace efac::kv {
namespace {

struct KvFixture : ::testing::Test {
  sim::Simulator sim;
  nvm::Arena arena{sim, 1024 * sizeconst::kKiB};
};

// --------------------------------------------------------------- layout

TEST(ObjectLayout, SizesAreEightAligned) {
  for (std::size_t klen : {1u, 8u, 32u, 33u}) {
    for (std::size_t vlen : {0u, 1u, 64u, 100u, 4096u}) {
      const std::size_t total = ObjectLayout::total_size(klen, vlen);
      EXPECT_EQ(total % 8, 0u);
      EXPECT_EQ(ObjectLayout::flag_offset(klen, vlen) + 8, total);
      EXPECT_GE(ObjectLayout::flag_offset(klen, vlen),
                ObjectLayout::kHeaderSize + klen + vlen);
    }
  }
}

TEST(ObjectLayout, HeaderRoundtrip) {
  ObjectMeta meta;
  meta.crc = 0xAABBCCDD;
  meta.vlen = 2048;
  meta.klen = 32;
  meta.valid = true;
  meta.transferred = true;
  meta.pre_ptr = 0x1000;
  meta.next_ptr = 0x2000;
  meta.write_time = 123456789;
  meta.key_hash = 0xFEEDFACE12345678ULL;
  const Bytes raw = ObjectLayout::encode_header(meta);
  EXPECT_EQ(raw.size(), ObjectLayout::kHeaderSize);
  const ObjectMeta back = ObjectLayout::decode_header(raw);
  EXPECT_EQ(back.crc, meta.crc);
  EXPECT_EQ(back.vlen, meta.vlen);
  EXPECT_EQ(back.klen, meta.klen);
  EXPECT_EQ(back.valid, meta.valid);
  EXPECT_EQ(back.transferred, meta.transferred);
  EXPECT_EQ(back.pre_ptr, meta.pre_ptr);
  EXPECT_EQ(back.next_ptr, meta.next_ptr);
  EXPECT_EQ(back.write_time, meta.write_time);
  EXPECT_EQ(back.key_hash, meta.key_hash);
}

TEST_F(KvFixture, ObjectRefFieldUpdates) {
  const MemOffset off = 4096;
  ObjectRef obj{arena, off};
  ObjectMeta meta;
  meta.klen = 8;
  meta.vlen = 64;
  meta.valid = true;
  obj.write_header(meta);

  obj.set_valid(false);
  EXPECT_FALSE(obj.read_header().valid);
  obj.set_valid(true);
  EXPECT_TRUE(obj.read_header().valid);

  obj.set_transferred(true);
  EXPECT_TRUE(obj.read_header().transferred);
  EXPECT_TRUE(obj.read_header().valid);  // untouched by trans update

  obj.set_pre_ptr(0xAAA0);
  obj.set_next_ptr(0xBBB0);
  EXPECT_EQ(obj.read_header().pre_ptr, 0xAAA0u);
  EXPECT_EQ(obj.read_header().next_ptr, 0xBBB0u);
  // klen/vlen survive the flag-word rewrites.
  EXPECT_EQ(obj.read_header().klen, 8u);
  EXPECT_EQ(obj.read_header().vlen, 64u);
}

TEST_F(KvFixture, DurabilityFlagRoundtrip) {
  ObjectRef obj{arena, 8192};
  ObjectMeta meta;
  meta.klen = 16;
  meta.vlen = 100;
  obj.write_header(meta);
  EXPECT_FALSE(obj.is_durable(16, 100));
  obj.set_durable(16, 100, true);
  EXPECT_TRUE(obj.is_durable(16, 100));
  obj.set_durable(16, 100, false);
  EXPECT_FALSE(obj.is_durable(16, 100));
}

TEST_F(KvFixture, CrcVerification) {
  const Bytes key = to_bytes("user4417");
  const Bytes value = to_bytes("some value payload for crc");
  ObjectMeta meta;
  meta.klen = static_cast<std::uint32_t>(key.size());
  meta.vlen = static_cast<std::uint32_t>(value.size());
  meta.key_hash = hash_key(key);
  meta.crc = object_crc(meta.key_hash, meta.klen, meta.vlen, value);

  ObjectRef obj{arena, 16384};
  obj.write_header(meta);
  obj.write_key(key);
  arena.store(16384 + ObjectLayout::kHeaderSize + key.size(), value);
  EXPECT_TRUE(obj.verify_crc());

  // Corrupt one value byte: verification must fail.
  Bytes bad = value;
  bad[3] ^= 0xFF;
  arena.store(16384 + ObjectLayout::kHeaderSize + key.size(), bad);
  EXPECT_FALSE(obj.verify_crc());
}

TEST_F(KvFixture, VerifyCrcToleratesGarbageHeader) {
  // A torn header with absurd sizes must fail cleanly, not throw.
  ObjectRef obj{arena, 1024 * sizeconst::kKiB - 64};
  ObjectMeta meta;
  meta.klen = 0xFFFFFF;
  meta.vlen = 0xFFFFFF;
  obj.write_header(meta);
  EXPECT_FALSE(obj.verify_crc());
}

TEST_F(KvFixture, SeededCrcRejectsTornHeaderSelfValidation) {
  // Regression for a hole found by fuzzing: crash-time eviction works at
  // 8-byte granularity, so the header word holding (crc, vlen) can revert
  // to zeros while the key_hash word survives. A plain value-only CRC
  // would then self-validate (crc32 of zero bytes == 0) and recovery
  // would fabricate an empty value. The identity-seeded CRC must reject
  // that header.
  const Bytes key = to_bytes("torn-header-key-0000000000000000");
  ObjectRef obj{arena, 32768};
  ObjectMeta meta;
  meta.klen = static_cast<std::uint32_t>(key.size());
  meta.vlen = 0;   // the (crc, vlen) word reverted to zero
  meta.crc = 0;
  meta.valid = true;
  meta.key_hash = hash_key(key);
  obj.write_header(meta);
  obj.write_key(key);
  EXPECT_FALSE(obj.verify_crc()) << "torn header self-validated";

  // A legitimately written empty value still verifies.
  meta.crc = object_crc(meta.key_hash, meta.klen, 0, BytesView{});
  obj.write_header(meta);
  EXPECT_TRUE(obj.verify_crc());
}

TEST(ObjectCrc, BindsIdentityIntoChecksum) {
  const Bytes value = to_bytes("same value bytes");
  const std::uint32_t a = object_crc(1, 8, 16, value);
  EXPECT_NE(a, object_crc(2, 8, 16, value));   // different key
  EXPECT_NE(a, object_crc(1, 9, 16, value));   // different klen
  EXPECT_NE(a, object_crc(1, 8, 17, value));   // different vlen
  EXPECT_EQ(a, object_crc(1, 8, 16, value));   // deterministic
}

TEST(HashKey, NeverZeroAndSpreads) {
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const Bytes key = to_bytes("key" + std::to_string(i));
    const std::uint64_t h = hash_key(key);
    EXPECT_NE(h, 0u);
    seen.insert(h);
  }
  EXPECT_EQ(seen.size(), 1000u);
}

// -------------------------------------------------------------- data pool

TEST_F(KvFixture, PoolAllocatesSequentially) {
  DataPool pool{arena, 4096, 64 * sizeconst::kKiB};
  auto a = pool.allocate(100);
  auto b = pool.allocate(100);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, 4096u);
  EXPECT_EQ(*b, 4096u + 104);  // rounded to 8
  EXPECT_TRUE(pool.contains(*a));
  EXPECT_FALSE(pool.contains(4095));
  EXPECT_EQ(pool.allocations(), 2u);
}

TEST_F(KvFixture, PoolExhaustionReturnsOutOfSpace) {
  DataPool pool{arena, 0, 256};
  ASSERT_TRUE(pool.allocate(200).has_value());
  auto r = pool.allocate(100);
  EXPECT_EQ(r.code(), StatusCode::kOutOfSpace);
}

TEST_F(KvFixture, PoolFillFractionAndReset) {
  DataPool pool{arena, 0, 1000};
  static_cast<void>(pool.allocate(496));
  EXPECT_NEAR(pool.fill_fraction(), 0.496, 0.01);
  pool.reset();
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_EQ(pool.fill_fraction(), 0.0);
}

TEST_F(KvFixture, PoolRejectsOversizedConstruction) {
  EXPECT_THROW(DataPool(arena, 0, 2 * 1024 * sizeconst::kKiB), CheckFailure);
}

// --------------------------------------------------------------- hash dir

TEST_F(KvFixture, HashDirClaimAndFind) {
  HashDir dir{arena, 0, 256};
  const std::uint64_t h = hash_key(to_bytes("alpha"));
  auto slot = dir.find_or_claim(h);
  ASSERT_TRUE(slot.has_value());
  auto found = dir.find(h);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, *slot);
  EXPECT_EQ(dir.size(), 1u);
}

TEST_F(KvFixture, HashDirMissReturnsNotFound) {
  HashDir dir{arena, 0, 256};
  EXPECT_EQ(dir.find(hash_key(to_bytes("absent"))).code(),
            StatusCode::kNotFound);
}

TEST_F(KvFixture, HashDirEntryRoundtripAndCurrent) {
  HashDir dir{arena, 0, 256};
  const std::uint64_t h = hash_key(to_bytes("beta"));
  auto slot = dir.find_or_claim(h);
  HashDir::Entry e;
  e.key_hash = h;
  e.off_old = 0x4000;
  e.off_new = 0x9000;
  e.mark = false;
  dir.write(*slot, e);
  const HashDir::Entry back = dir.read(*slot);
  EXPECT_EQ(back.key_hash, h);
  EXPECT_EQ(back.off_old, 0x4000u);
  EXPECT_EQ(back.off_new, 0x9000u);
  EXPECT_EQ(back.current(), 0x4000u);
  e.mark = true;
  dir.write(*slot, e);
  EXPECT_EQ(dir.read(*slot).current(), 0x9000u);
}

TEST_F(KvFixture, HashDirDecodeMatchesRawBytes) {
  HashDir dir{arena, 0, 256};
  const std::uint64_t h = hash_key(to_bytes("gamma"));
  auto slot = dir.find_or_claim(h);
  HashDir::Entry e;
  e.key_hash = h;
  e.off_old = 0x1230;
  dir.write(*slot, e);
  // What a client would fetch with a 32-byte RDMA READ:
  const Bytes raw = arena.load(dir.entry_offset(*slot), HashDir::kEntrySize);
  const HashDir::Entry decoded = HashDir::decode(raw);
  EXPECT_EQ(decoded.key_hash, h);
  EXPECT_EQ(decoded.off_old, 0x1230u);
  EXPECT_FALSE(decoded.mark);
}

TEST_F(KvFixture, HashDirLinearProbingHandlesCollisions) {
  HashDir dir{arena, 0, 8};
  // Force collisions: craft hashes with the same ideal slot.
  std::vector<std::uint64_t> hashes;
  for (std::uint64_t i = 1; hashes.size() < 4; ++i) {
    const std::uint64_t h = i * 8 + 3;  // all map to slot 3
    hashes.push_back(h);
  }
  std::set<std::size_t> slots;
  for (const auto h : hashes) {
    auto slot = dir.find_or_claim(h);
    ASSERT_TRUE(slot.has_value());
    slots.insert(*slot);
  }
  EXPECT_EQ(slots.size(), 4u);  // all distinct
  for (const auto h : hashes) {
    EXPECT_TRUE(dir.find(h).has_value());
  }
}

TEST_F(KvFixture, HashDirFullTable) {
  HashDir dir{arena, 0, 8};
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(dir.find_or_claim(1000 + i).has_value());
  }
  EXPECT_EQ(dir.find_or_claim(5000).code(), StatusCode::kOutOfSpace);
}

TEST_F(KvFixture, HashDirPersistSurvivesCrash) {
  HashDir dir{arena, 0, 256};
  const std::uint64_t h = hash_key(to_bytes("durable"));
  auto slot = dir.find_or_claim(h);
  HashDir::Entry e;
  e.key_hash = h;
  e.off_old = 0x7000;
  dir.write(*slot, e);
  dir.persist(*slot);
  arena.crash(nvm::CrashPolicy{.eviction_probability = 0.0});
  EXPECT_EQ(dir.read(*slot).off_old, 0x7000u);
}

TEST_F(KvFixture, HashDirRejectsNonPow2) {
  EXPECT_THROW(HashDir(arena, 0, 100), CheckFailure);
}

// ------------------------------------------------------------- erda table

struct ErdaFixture : KvFixture {
  static constexpr MemOffset kPoolBase = 64 * sizeconst::kKiB;
  ErdaTable table{arena, 0, 256, kPoolBase};
};

TEST_F(ErdaFixture, PushAndReadVersions) {
  const std::uint64_t h = hash_key(to_bytes("k1"));
  auto slot = table.find_or_claim(h);
  ASSERT_TRUE(slot.has_value());
  table.push_version(*slot, kPoolBase + 0x100);
  auto v1 = table.read_versions(*slot);
  EXPECT_EQ(v1.cur, kPoolBase + 0x100);
  EXPECT_EQ(v1.prev, 0u);
  table.push_version(*slot, kPoolBase + 0x200);
  auto v2 = table.read_versions(*slot);
  EXPECT_EQ(v2.cur, kPoolBase + 0x200);
  EXPECT_EQ(v2.prev, kPoolBase + 0x100);
  EXPECT_EQ(v2.tag, static_cast<std::uint8_t>(v1.tag + 1));
}

TEST_F(ErdaFixture, OnlyTwoVersionsSurvive) {
  // The 8-byte region can only remember two versions — the limitation the
  // paper's multi-version list removes.
  const std::uint64_t h = hash_key(to_bytes("k2"));
  auto slot = table.find_or_claim(h);
  table.push_version(*slot, kPoolBase + 0x100);
  table.push_version(*slot, kPoolBase + 0x200);
  table.push_version(*slot, kPoolBase + 0x300);
  auto v = table.read_versions(*slot);
  EXPECT_EQ(v.cur, kPoolBase + 0x300);
  EXPECT_EQ(v.prev, kPoolBase + 0x200);
  // 0x100 is unreachable.
}

TEST_F(ErdaFixture, AtomicRegionIsOneWord) {
  const std::uint64_t h = hash_key(to_bytes("k3"));
  auto slot = table.find_or_claim(h);
  const std::uint64_t stores_before = arena.stats().cpu_stores;
  table.push_version(*slot, kPoolBase + 0x400);
  // Exactly one 8-byte store: the update is failure-atomic.
  EXPECT_EQ(arena.stats().cpu_stores, stores_before + 1);
}

TEST_F(ErdaFixture, NeighborhoodScanFindsKey) {
  const std::uint64_t h = hash_key(to_bytes("k4"));
  auto slot = table.find_or_claim(h);
  table.push_version(*slot, kPoolBase + 0x800);
  // Client-side: fetch the neighborhood of the *home* slot.
  const std::size_t home = table.ideal_slot(h);
  const Bytes raw = arena.load(table.bucket_offset(home),
                               ErdaTable::neighborhood_bytes());
  auto versions = ErdaTable::scan_neighborhood(raw, h, kPoolBase);
  ASSERT_TRUE(versions.has_value());
  EXPECT_EQ(versions->cur, kPoolBase + 0x800);
}

TEST_F(ErdaFixture, NeighborhoodScanMiss) {
  const Bytes raw(ErdaTable::neighborhood_bytes(), 0);
  EXPECT_EQ(
      ErdaTable::scan_neighborhood(raw, 12345, kPoolBase).code(),
      StatusCode::kNotFound);
}

TEST_F(ErdaFixture, HopscotchKeepsKeysNearHome) {
  // Saturate one home slot with many colliding keys: displacement must keep
  // every key within its neighborhood (findable via neighborhood scan).
  std::vector<std::uint64_t> hashes;
  for (std::uint64_t i = 0; i < ErdaTable::kNeighborhood; ++i) {
    hashes.push_back(i * 256 + 7);  // home slot 7 for all
  }
  for (const auto h : hashes) {
    ASSERT_TRUE(table.find_or_claim(h).has_value()) << h;
  }
  for (const auto h : hashes) {
    auto slot = table.find(h);
    ASSERT_TRUE(slot.has_value());
    EXPECT_GE(*slot, table.ideal_slot(h));
    EXPECT_LT(*slot, table.ideal_slot(h) + ErdaTable::kNeighborhood);
  }
}

TEST_F(ErdaFixture, DisplacementMovesVersionDataIntact) {
  // Fill slots 8..14 with keys homed at 8..14, then insert colliders homed
  // at 7 until displacement must occur; version data must follow the key.
  for (std::uint64_t home = 8; home <= 14; ++home) {
    const std::uint64_t h = 256 * 100 + home;  // ideal slot = home
    ASSERT_TRUE(table.find_or_claim(h).has_value());
    table.push_version(*table.find(h), kPoolBase + home * 64);
  }
  // Colliders at home 7 fill 7 and then need displacement.
  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(table.find_or_claim(i * 256 + 7).has_value());
  }
  for (std::uint64_t home = 8; home <= 14; ++home) {
    const std::uint64_t h = 256 * 100 + home;
    auto slot = table.find(h);
    ASSERT_TRUE(slot.has_value());
    EXPECT_EQ(table.read_versions(*slot).cur, kPoolBase + home * 64);
  }
}

TEST_F(ErdaFixture, FindOrClaimIsIdempotent) {
  const std::uint64_t h = hash_key(to_bytes("idem"));
  auto a = table.find_or_claim(h);
  auto b = table.find_or_claim(h);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(table.size(), 1u);
}

TEST_F(ErdaFixture, OffsetPackingLimits) {
  const std::uint64_t h = hash_key(to_bytes("far"));
  auto slot = table.find_or_claim(h);
  // In-range max: (2^28 - 1) units.
  const MemOffset near_limit = kPoolBase + 0x1000;
  table.push_version(*slot, near_limit);
  EXPECT_EQ(table.read_versions(*slot).cur, near_limit);
  // Misaligned offsets are rejected.
  EXPECT_THROW(table.push_version(*slot, kPoolBase + 3), CheckFailure);
}

}  // namespace
}  // namespace efac::kv
