// Wire-format round-trip tests for every RPC message, plus run-harness
// configuration sizing properties.
#include <gtest/gtest.h>

#include "store_test_util.hpp"
#include "stores/wire.hpp"
#include "workload/runner.hpp"

namespace efac::stores {
namespace {

TEST(Wire, AllocRequestRoundtrip) {
  AllocRequest req;
  req.klen = 32;
  req.vlen = 4096;
  req.crc = 0xDEADBEEF;
  req.key = to_bytes("the-key");
  const AllocRequest back = AllocRequest::decode(req.encode());
  EXPECT_EQ(back.klen, req.klen);
  EXPECT_EQ(back.vlen, req.vlen);
  EXPECT_EQ(back.crc, req.crc);
  EXPECT_EQ(back.key, req.key);
}

TEST(Wire, AllocResponseRoundtrip) {
  AllocResponse resp;
  resp.status = StatusCode::kOutOfSpace;
  resp.object_off = 0x123456789ABCull;
  resp.token = 77;
  resp.entry_off = 0x4440;
  const AllocResponse back = AllocResponse::decode(resp.encode());
  EXPECT_EQ(back.status, resp.status);
  EXPECT_EQ(back.object_off, resp.object_off);
  EXPECT_EQ(back.token, resp.token);
  EXPECT_EQ(back.entry_off, resp.entry_off);
}

TEST(Wire, GetLocRequestRoundtrip) {
  GetLocRequest req;
  req.key = to_bytes("lookup-key-with-some-length");
  EXPECT_EQ(GetLocRequest::decode(req.encode()).key, req.key);
}

TEST(Wire, LocResponseRoundtrip) {
  LocResponse resp;
  resp.status = StatusCode::kCorrupt;
  resp.object_off = 98765;
  resp.klen = 32;
  resp.vlen = 2048;
  const LocResponse back = LocResponse::decode(resp.encode());
  EXPECT_EQ(back.status, resp.status);
  EXPECT_EQ(back.object_off, resp.object_off);
  EXPECT_EQ(back.klen, resp.klen);
  EXPECT_EQ(back.vlen, resp.vlen);
}

TEST(Wire, PersistRequestRoundtrip) {
  PersistRequest req;
  req.object_off = 0xABCD00;
  req.klen = 16;
  req.vlen = 512;
  const PersistRequest back = PersistRequest::decode(req.encode());
  EXPECT_EQ(back.object_off, req.object_off);
  EXPECT_EQ(back.klen, req.klen);
  EXPECT_EQ(back.vlen, req.vlen);
}

TEST(Wire, PutInlineRequestRoundtrip) {
  PutInlineRequest req;
  req.key = to_bytes("k");
  req.value = Bytes(1000, 0x42);
  const PutInlineRequest back = PutInlineRequest::decode(req.encode());
  EXPECT_EQ(back.key, req.key);
  EXPECT_EQ(back.value, req.value);
}

TEST(Wire, ValueResponseRoundtrip) {
  ValueResponse resp;
  resp.status = StatusCode::kOk;
  resp.value = to_bytes("returned bytes");
  const ValueResponse back = ValueResponse::decode(resp.encode());
  EXPECT_EQ(back.status, resp.status);
  EXPECT_EQ(back.value, resp.value);
}

TEST(Wire, EmptyPayloadsRoundtrip) {
  PutInlineRequest req;  // empty key and value
  const PutInlineRequest back = PutInlineRequest::decode(req.encode());
  EXPECT_TRUE(back.key.empty());
  EXPECT_TRUE(back.value.empty());
  ValueResponse resp;
  EXPECT_TRUE(ValueResponse::decode(resp.encode()).value.empty());
}

TEST(Wire, StatusByteRoundtrip) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kNotFound, StatusCode::kOutOfSpace,
        StatusCode::kCorrupt}) {
    EXPECT_EQ(decode_status(encode_status(code)), code);
  }
}

}  // namespace
}  // namespace efac::stores

namespace efac::workload {
namespace {

TEST(SizedConfig, PoolHoldsWholeWorkload) {
  RunOptions options;
  options.workload.key_count = 1000;
  options.workload.value_len = 2048;
  options.workload.mix = Mix::kUpdateOnly;
  options.clients = 8;
  options.ops_per_client = 500;
  const stores::StoreConfig config = sized_store_config(options);
  const std::size_t object =
      kv::ObjectLayout::total_size(options.workload.key_len, 2048);
  const std::size_t demand = (1000 + 8 * 500) * object;
  EXPECT_GE(config.pool_bytes, demand);
  EXPECT_EQ(config.pool_bytes % sizeconst::kCacheLine, 0u);
}

TEST(SizedConfig, CleaningVariantIsTighterButHoldsLiveSet) {
  RunOptions options;
  options.workload.key_count = 1000;
  options.workload.value_len = 2048;
  options.workload.mix = Mix::kUpdateOnly;
  options.clients = 8;
  options.ops_per_client = 2000;
  const std::size_t normal = sized_store_config(options).pool_bytes;
  const std::size_t cleaning =
      sized_store_config(options, /*for_cleaning=*/true).pool_bytes;
  EXPECT_LT(cleaning, normal);
  const std::size_t live =
      1000 * kv::ObjectLayout::total_size(options.workload.key_len, 2048);
  EXPECT_GE(cleaning, live);  // heads must always fit
}

TEST(SizedConfig, BucketsArePowerOfTwoAndCoverKeys) {
  RunOptions options;
  options.workload.key_count = 5000;
  const stores::StoreConfig config = sized_store_config(options);
  EXPECT_TRUE(std::has_single_bit(config.hash_buckets));
  EXPECT_GE(config.hash_buckets, 4u * 5000u);
}

TEST(RunnerSmoke, TinyRunProducesCoherentResult) {
  RunOptions options;
  options.workload.key_count = 16;
  options.workload.value_len = 64;
  options.workload.mix = Mix::kWriteIntensive;
  options.clients = 2;
  options.ops_per_client = 25;
  sim::Simulator sim;
  stores::Cluster cluster = stores::make_cluster(
      sim, stores::SystemKind::kEFactory, sized_store_config(options));
  const RunResult result = run_workload(sim, cluster, options);
  EXPECT_EQ(result.ops, 50u);
  EXPECT_EQ(result.puts + result.gets, 50u);
  EXPECT_EQ(result.put_latency.count(), result.puts);
  EXPECT_EQ(result.get_latency.count(), result.gets);
  EXPECT_EQ(result.op_latency.count(), 50u);
  EXPECT_GT(result.mops, 0.0);
  EXPECT_EQ(result.put_failures, 0u);
  EXPECT_EQ(result.get_failures, 0u);
  EXPECT_EQ(testutil::counter(result.metrics, "client.gets"), result.gets);
}

}  // namespace
}  // namespace efac::workload
