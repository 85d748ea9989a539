#include "stores/wire.hpp"

namespace efac::stores {

Bytes AllocRequest::encode() const {
  ByteWriter w{key.size() + 17};
  w.put_u32(klen);
  w.put_u32(vlen);
  w.put_u32(crc);
  w.put_blob(key);
  return std::move(w).take();
}

AllocRequest AllocRequest::decode(BytesView raw) {
  ByteReader r{raw};
  AllocRequest req;
  req.klen = r.get_u32();
  req.vlen = r.get_u32();
  req.crc = r.get_u32();
  const BytesView key = r.get_blob();
  req.key.assign(key.begin(), key.end());
  return req;
}

Bytes AllocResponse::encode() const {
  ByteWriter w{32};
  w.put_u8(static_cast<std::uint8_t>(status));
  w.put_u64(object_off);
  w.put_u32(token);
  w.put_u64(entry_off);
  return std::move(w).take();
}

AllocResponse AllocResponse::decode(BytesView raw) {
  ByteReader r{raw};
  AllocResponse resp;
  resp.status = static_cast<StatusCode>(r.get_u8());
  resp.object_off = r.get_u64();
  resp.token = r.get_u32();
  resp.entry_off = r.get_u64();
  return resp;
}

Bytes BatchAllocRequest::encode() const {
  std::size_t est = 8;
  for (const AllocRequest& item : items) est += item.key.size() + 24;
  ByteWriter w{est};
  w.put_u32(static_cast<std::uint32_t>(items.size()));
  for (const AllocRequest& item : items) w.put_blob(item.encode());
  return std::move(w).take();
}

BatchAllocRequest BatchAllocRequest::decode(BytesView raw) {
  ByteReader r{raw};
  BatchAllocRequest req;
  const std::uint32_t count = r.get_u32();
  req.items.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    req.items.push_back(AllocRequest::decode(r.get_blob()));
  }
  return req;
}

Bytes BatchAllocResponse::encode() const {
  ByteWriter w{8 + items.size() * 32};
  w.put_u32(static_cast<std::uint32_t>(items.size()));
  for (const AllocResponse& item : items) w.put_blob(item.encode());
  return std::move(w).take();
}

BatchAllocResponse BatchAllocResponse::decode(BytesView raw) {
  ByteReader r{raw};
  BatchAllocResponse resp;
  const std::uint32_t count = r.get_u32();
  resp.items.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    resp.items.push_back(AllocResponse::decode(r.get_blob()));
  }
  return resp;
}

Bytes GetLocRequest::encode() const {
  ByteWriter w{key.size() + 8};
  w.put_blob(key);
  return std::move(w).take();
}

GetLocRequest GetLocRequest::decode(BytesView raw) {
  ByteReader r{raw};
  GetLocRequest req;
  const BytesView key = r.get_blob();
  req.key.assign(key.begin(), key.end());
  return req;
}

Bytes LocResponse::encode() const {
  ByteWriter w{24};
  w.put_u8(static_cast<std::uint8_t>(status));
  w.put_u64(object_off);
  w.put_u32(klen);
  w.put_u32(vlen);
  return std::move(w).take();
}

LocResponse LocResponse::decode(BytesView raw) {
  ByteReader r{raw};
  LocResponse resp;
  resp.status = static_cast<StatusCode>(r.get_u8());
  resp.object_off = r.get_u64();
  resp.klen = r.get_u32();
  resp.vlen = r.get_u32();
  return resp;
}

Bytes PersistRequest::encode() const {
  ByteWriter w{16};
  w.put_u64(object_off);
  w.put_u32(klen);
  w.put_u32(vlen);
  return std::move(w).take();
}

PersistRequest PersistRequest::decode(BytesView raw) {
  ByteReader r{raw};
  PersistRequest req;
  req.object_off = r.get_u64();
  req.klen = r.get_u32();
  req.vlen = r.get_u32();
  return req;
}

Bytes PutInlineRequest::encode() const {
  ByteWriter w{key.size() + value.size() + 16};
  w.put_blob(key);
  w.put_blob(value);
  return std::move(w).take();
}

PutInlineRequest PutInlineRequest::decode(BytesView raw) {
  ByteReader r{raw};
  PutInlineRequest req;
  const BytesView key = r.get_blob();
  req.key.assign(key.begin(), key.end());
  const BytesView value = r.get_blob();
  req.value.assign(value.begin(), value.end());
  return req;
}

Bytes ValueResponse::encode() const {
  ByteWriter w{value.size() + 8};
  w.put_u8(static_cast<std::uint8_t>(status));
  w.put_blob(value);
  return std::move(w).take();
}

ValueResponse ValueResponse::decode(BytesView raw) {
  ByteReader r{raw};
  ValueResponse resp;
  resp.status = static_cast<StatusCode>(r.get_u8());
  const BytesView value = r.get_blob();
  resp.value.assign(value.begin(), value.end());
  return resp;
}

Bytes encode_status(StatusCode status) {
  return Bytes{static_cast<std::uint8_t>(status)};
}

StatusCode decode_status(BytesView raw) {
  EFAC_CHECK(!raw.empty());
  return static_cast<StatusCode>(raw[0]);
}

}  // namespace efac::stores
