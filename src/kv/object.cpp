#include "kv/object.hpp"

#include <array>

#include "common/assert.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace efac::kv {

Bytes ObjectLayout::encode_header(const ObjectMeta& meta) {
  ByteWriter w{kHeaderSize};
  w.put_u32(meta.crc);
  w.put_u32(meta.vlen);
  w.put_u32(meta.klen);
  std::uint32_t flags = 0;
  if (meta.valid) flags |= kFlagValid;
  if (meta.transferred) flags |= kFlagTransferred;
  if (meta.tombstone) flags |= kFlagTombstone;
  w.put_u32(flags);
  w.put_u64(meta.pre_ptr);
  w.put_u64(meta.next_ptr);
  w.put_u64(meta.write_time);
  w.put_u64(meta.key_hash);
  EFAC_CHECK(w.size() == kHeaderSize);
  return std::move(w).take();
}

ObjectMeta ObjectLayout::decode_header(BytesView bytes) {
  EFAC_CHECK(bytes.size() >= kHeaderSize);
  ByteReader r{bytes};
  ObjectMeta meta;
  meta.crc = r.get_u32();
  meta.vlen = r.get_u32();
  meta.klen = r.get_u32();
  const std::uint32_t flags = r.get_u32();
  meta.valid = (flags & kFlagValid) != 0;
  meta.transferred = (flags & kFlagTransferred) != 0;
  meta.tombstone = (flags & kFlagTombstone) != 0;
  meta.pre_ptr = r.get_u64();
  meta.next_ptr = r.get_u64();
  meta.write_time = r.get_u64();
  meta.key_hash = r.get_u64();
  return meta;
}

void ObjectRef::write_header(const ObjectMeta& meta) {
  arena_->store(offset_, ObjectLayout::encode_header(meta));
}

ObjectMeta ObjectRef::read_header() const {
  std::array<std::uint8_t, ObjectLayout::kHeaderSize> raw{};
  arena_->load(offset_, MutableBytesView{raw});
  return ObjectLayout::decode_header(raw);
}

void ObjectRef::write_key(BytesView key) {
  arena_->store(offset_ + ObjectLayout::kHeaderSize, key);
}

Bytes ObjectRef::read_key(std::size_t klen) const {
  return arena_->load(offset_ + ObjectLayout::kHeaderSize, klen);
}

Bytes ObjectRef::read_value(std::size_t klen, std::size_t vlen) const {
  return arena_->load(offset_ + ObjectLayout::kHeaderSize + klen, vlen);
}

void ObjectRef::set_durable(std::size_t klen, std::size_t vlen,
                            bool durable) {
  arena_->store_u64(offset_ + ObjectLayout::flag_offset(klen, vlen),
                    durable ? 1 : 0);
}

bool ObjectRef::is_durable(std::size_t klen, std::size_t vlen) const {
  // flag==1 promises exactly "header+key+value are persisted": a positive
  // test of this predicate is static persist evidence (docs/STATIC_ANALYSIS.md).
  EFAC_FN_OBSERVES_DURABLE();
  return arena_->load_u64(offset_ + ObjectLayout::flag_offset(klen, vlen)) ==
         1;
}

void ObjectRef::store_flags_word(std::uint32_t flags) {
  // The flags field shares its 8-byte atomic unit with klen; rewrite the
  // whole word to keep the store atomic.
  std::uint64_t word = arena_->load_u64(offset_ + 8);
  word = (word & 0xFFFFFFFFull) | (static_cast<std::uint64_t>(flags) << 32);
  arena_->store_u64(offset_ + 8, word);
}

void ObjectRef::set_valid(bool valid) {
  std::uint32_t flags = static_cast<std::uint32_t>(
      arena_->load_u64(offset_ + 8) >> 32);
  flags = valid ? (flags | ObjectLayout::kFlagValid)
                : (flags & ~ObjectLayout::kFlagValid);
  store_flags_word(flags);
}

void ObjectRef::set_transferred(bool transferred) {
  std::uint32_t flags = static_cast<std::uint32_t>(
      arena_->load_u64(offset_ + 8) >> 32);
  flags = transferred ? (flags | ObjectLayout::kFlagTransferred)
                      : (flags & ~ObjectLayout::kFlagTransferred);
  store_flags_word(flags);
}

void ObjectRef::set_pre_ptr(MemOffset pre) {
  arena_->store_u64(offset_ + ObjectLayout::kPrePtrFieldOff, pre);
}

void ObjectRef::set_next_ptr(MemOffset next) {
  arena_->store_u64(offset_ + ObjectLayout::kNextPtrFieldOff, next);
}

bool ObjectRef::verify_crc() const {
  const ObjectMeta meta = read_header();
  // Guard against torn headers with absurd sizes (recovery-time reads).
  const std::size_t total = ObjectLayout::total_size(meta.klen, meta.vlen);
  if (offset_ > arena_->size() || total > arena_->size() - offset_) {
    return false;
  }
  const Bytes value = read_value(meta.klen, meta.vlen);
  return object_crc(meta.key_hash, meta.klen, meta.vlen, value) == meta.crc;
}

void ObjectRef::flush_all(std::size_t klen, std::size_t vlen) {
  arena_->flush(offset_, ObjectLayout::total_size(klen, vlen));
}

std::uint32_t object_crc(std::uint64_t key_hash, std::uint32_t klen,
                         std::uint32_t vlen, BytesView value) {
  const std::uint64_t identity =
      mix64(key_hash ^ (static_cast<std::uint64_t>(vlen) << 32) ^ klen);
  return checksum::crc32(value, static_cast<std::uint32_t>(identity));
}

std::uint64_t hash_key(BytesView key) {
  // FNV-1a folded through mix64; never returns 0 (0 marks empty slots).
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : key) {
    h = (h ^ b) * 0x100000001b3ULL;
  }
  h = mix64(h);
  return h == 0 ? 1 : h;
}

}  // namespace efac::kv
