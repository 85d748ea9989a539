// Unit tests for the YCSB workload generator: Zipfian skew, mix ratios,
// key/value determinism.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <unordered_set>

#include "workload/ycsb.hpp"

namespace efac::workload {
namespace {

TEST(Zipfian, RanksInRange) {
  ZipfianGenerator gen{100};
  Rng rng{1};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(gen.next(rng), 100u);
  }
}

TEST(Zipfian, RankZeroIsMostPopular) {
  ZipfianGenerator gen{1000, 0.99};
  Rng rng{2};
  std::map<std::uint64_t, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[gen.next(rng)];
  // Rank 0 must be the modal draw and carry a large share.
  int max_count = 0;
  std::uint64_t max_rank = 1;
  for (const auto& [rank, count] : counts) {
    if (count > max_count) {
      max_count = count;
      max_rank = rank;
    }
  }
  EXPECT_EQ(max_rank, 0u);
  EXPECT_GT(max_count, n / 20);  // heavy head
}

TEST(Zipfian, LongTailExists) {
  ZipfianGenerator gen{1000, 0.99};
  Rng rng{3};
  std::set<std::uint64_t> distinct;
  for (int i = 0; i < 50000; ++i) distinct.insert(gen.next(rng));
  EXPECT_GT(distinct.size(), 300u);  // the tail is actually sampled
}

TEST(Zipfian, HigherThetaIsMoreSkewed) {
  Rng rng_a{4}, rng_b{4};
  ZipfianGenerator mild{1000, 0.5};
  ZipfianGenerator steep{1000, 0.99};
  int mild_zero = 0, steep_zero = 0;
  for (int i = 0; i < 20000; ++i) {
    mild_zero += (mild.next(rng_a) == 0);
    steep_zero += (steep.next(rng_b) == 0);
  }
  EXPECT_GT(steep_zero, mild_zero);
}

TEST(Zipfian, InvalidParamsThrow) {
  EXPECT_THROW(ZipfianGenerator(0), CheckFailure);
  EXPECT_THROW(ZipfianGenerator(10, 1.5), CheckFailure);
}

TEST(Mix, PutFractionsMatchPaper) {
  EXPECT_EQ(put_fraction(Mix::kReadOnly), 0.0);
  EXPECT_EQ(put_fraction(Mix::kReadIntensive), 0.05);
  EXPECT_EQ(put_fraction(Mix::kWriteIntensive), 0.50);
  EXPECT_EQ(put_fraction(Mix::kUpdateOnly), 1.0);
  EXPECT_EQ(all_mixes().size(), 4u);
}

TEST(Workload, OpMixApproximatesFraction) {
  Workload wl{WorkloadConfig{.mix = Mix::kReadIntensive, .key_count = 100}};
  Rng rng{5};
  int puts = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) puts += wl.next(rng).is_put;
  EXPECT_NEAR(static_cast<double>(puts) / n, 0.05, 0.01);
}

TEST(Workload, KeysAreFixedWidthAndUnique) {
  Workload wl{WorkloadConfig{.key_count = 1000, .key_len = 32}};
  std::unordered_set<std::string> keys;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const Bytes key = wl.key_at(i);
    EXPECT_EQ(key.size(), 32u);
    keys.emplace(key.begin(), key.end());
  }
  EXPECT_EQ(keys.size(), 1000u);
}

TEST(Workload, ValuesAreDeterministicPerKeyVersion) {
  Workload wl{WorkloadConfig{.value_len = 256}};
  EXPECT_EQ(wl.value_for(7, 3), wl.value_for(7, 3));
  EXPECT_NE(wl.value_for(7, 3), wl.value_for(7, 4));
  EXPECT_NE(wl.value_for(7, 3), wl.value_for(8, 3));
  EXPECT_EQ(wl.value_for(1, 1).size(), 256u);
}

TEST(Workload, ScrambleSpreadsHotKeys) {
  WorkloadConfig scrambled{.key_count = 1000, .scramble = true};
  Workload wl{scrambled};
  Rng rng{6};
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[wl.next(rng).key_index];
  // The hottest key is no longer index 0 (scrambled), but skew remains.
  auto hottest = std::max_element(
      counts.begin(), counts.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  EXPECT_NE(hottest->first, 0u);
  EXPECT_GT(hottest->second, 20000 / 20);
}

TEST(Workload, SameSeedSameStream) {
  Workload wl{WorkloadConfig{.mix = Mix::kWriteIntensive, .key_count = 50}};
  Rng a{42}, b{42};
  for (int i = 0; i < 200; ++i) {
    const Workload::Op x = wl.next(a);
    const Workload::Op y = wl.next(b);
    EXPECT_EQ(x.is_put, y.is_put);
    EXPECT_EQ(x.key_index, y.key_index);
  }
}

}  // namespace
}  // namespace efac::workload
