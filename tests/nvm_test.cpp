// Unit tests for the simulated NVM arena: volatility boundary, flush
// semantics, chunked DMA arrival, and crash behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "common/assert.hpp"
#include "nvm/arena.hpp"
#include "sim/simulator.hpp"

namespace efac::nvm {
namespace {

constexpr std::size_t kArenaSize = 64 * sizeconst::kKiB;

Bytes pattern(std::size_t len, std::uint8_t seed = 1) {
  Bytes out(len);
  for (std::size_t i = 0; i < len; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return out;
}

struct ArenaFixture : ::testing::Test {
  sim::Simulator sim;
  Arena arena{sim, kArenaSize};
};

// ----------------------------------------------------------- basic access

TEST_F(ArenaFixture, StoreLoadRoundtrip) {
  const Bytes data = pattern(100);
  arena.store(64, data);
  EXPECT_EQ(arena.load(64, 100), data);
}

TEST_F(ArenaFixture, FreshArenaIsZeroed) {
  EXPECT_EQ(arena.load(0, 16), Bytes(16, 0));
}

TEST_F(ArenaFixture, StoreU64IsAligned) {
  arena.store_u64(128, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(arena.load_u64(128), 0xDEADBEEFCAFEF00DULL);
  EXPECT_THROW(arena.store_u64(129, 1), CheckFailure);
  EXPECT_THROW(static_cast<void>(arena.load_u64(129)), CheckFailure);
}

TEST_F(ArenaFixture, OutOfRangeAccessThrows) {
  EXPECT_THROW(arena.store(kArenaSize - 4, pattern(8)), CheckFailure);
  EXPECT_THROW(static_cast<void>(arena.load(kArenaSize, 1)), CheckFailure);
}

TEST(Arena, SizeMustBeLineMultiple) {
  sim::Simulator sim;
  EXPECT_THROW(Arena(sim, 100), CheckFailure);
  EXPECT_THROW(Arena(sim, 0), CheckFailure);
}

// ------------------------------------------------------- dirty / flushing

TEST_F(ArenaFixture, StoreMakesLinesDirtyFlushCleans) {
  arena.store(0, pattern(65));  // spans two lines
  EXPECT_TRUE(arena.is_dirty(0, 65));
  arena.flush(0, 65);
  EXPECT_FALSE(arena.is_dirty(0, 128));
}

TEST_F(ArenaFixture, FlushPersistsLineGranularity) {
  // Two values sharing a cache line: flushing one persists its neighbour.
  arena.store(0, pattern(8, 1));
  arena.store(8, pattern(8, 2));
  arena.flush(0, 8);
  EXPECT_EQ(arena.persisted_bytes(8, 8), pattern(8, 2));
}

TEST_F(ArenaFixture, UnflushedDataNotInPersistedImage) {
  arena.store(256, pattern(32));
  EXPECT_EQ(arena.persisted_bytes(256, 32), Bytes(32, 0));
  arena.flush(256, 32);
  EXPECT_EQ(arena.persisted_bytes(256, 32), pattern(32));
}

TEST_F(ArenaFixture, FlushZeroLengthIsNoop) {
  EXPECT_NO_THROW(arena.flush(0, 0));
  EXPECT_FALSE(arena.is_dirty(0, 0));
}

TEST_F(ArenaFixture, CostModelScalesWithSize) {
  const CostModel& cost = arena.cost();
  EXPECT_EQ(cost.flush_cost(0), 0u);
  EXPECT_GE(cost.flush_cost(1), cost.flush_base_ns);  // fixed setup part
  EXPECT_GT(cost.flush_cost(4096), cost.flush_cost(64));  // bandwidth part
  EXPECT_GT(cost.store_cost(4096), cost.store_cost(64));
  EXPECT_GT(cost.load_cost(4096), 0u);
}

// ------------------------------------------------------------ crash model

TEST_F(ArenaFixture, CrashDiscardsDirtyDataWithZeroEviction) {
  arena.store(0, pattern(64));
  arena.crash(CrashPolicy{.eviction_probability = 0.0});
  EXPECT_EQ(arena.load(0, 64), Bytes(64, 0));
  EXPECT_FALSE(arena.is_dirty(0, 64));
}

TEST_F(ArenaFixture, CrashKeepsFlushedData) {
  arena.store(0, pattern(64));
  arena.flush(0, 64);
  arena.crash(CrashPolicy{.eviction_probability = 0.0});
  EXPECT_EQ(arena.load(0, 64), pattern(64));
}

TEST_F(ArenaFixture, CrashWithFullEvictionKeepsDirtyData) {
  arena.store(0, pattern(64));
  arena.crash(CrashPolicy{.eviction_probability = 1.0});
  EXPECT_EQ(arena.load(0, 64), pattern(64));
}

TEST_F(ArenaFixture, CrashEvictionIsEightByteAtomic) {
  // With partial eviction, surviving data must consist of whole 8-byte
  // words of the written value — a word is never torn.
  const Bytes data = pattern(512, 9);
  arena.store(0, data);
  arena.crash(CrashPolicy{.eviction_probability = 0.5});
  const Bytes after = arena.load(0, 512);
  int survived = 0;
  for (std::size_t w = 0; w < 512; w += 8) {
    const bool is_written = std::equal(after.begin() + w,
                                       after.begin() + w + 8,
                                       data.begin() + w);
    const Bytes zero(8, 0);
    const bool is_zero =
        std::equal(after.begin() + w, after.begin() + w + 8, zero.begin());
    EXPECT_TRUE(is_written || is_zero) << "torn word at " << w;
    survived += is_written;
  }
  // ~50 % of 64 words should survive; allow a broad band.
  EXPECT_GT(survived, 10);
  EXPECT_LT(survived, 54);
}

TEST_F(ArenaFixture, CrashIsDeterministicPerSeed) {
  sim::Simulator sim2;
  Arena twin{sim2, kArenaSize};  // same default seed as `arena`
  const Bytes data = pattern(256);
  arena.store(0, data);
  twin.store(0, data);
  arena.crash(CrashPolicy{.eviction_probability = 0.5});
  twin.crash(CrashPolicy{.eviction_probability = 0.5});
  EXPECT_EQ(arena.load(0, 256), twin.load(0, 256));
}

TEST_F(ArenaFixture, SecondCrashWithoutNewWritesIsStable) {
  arena.store(0, pattern(64));
  arena.flush(0, 64);
  arena.crash();
  const Bytes first = arena.load(0, 64);
  arena.crash();
  EXPECT_EQ(arena.load(0, 64), first);
}

// -------------------------------------------------------------- DMA model

TEST_F(ArenaFixture, DmaVisibleAfterArrival) {
  const Bytes data = pattern(128);
  arena.dma_write(0, data, sim.now(), sim.now() + 1000);
  sim.run_until(sim.now() + 1000);
  EXPECT_EQ(arena.load(0, 128), data);
  EXPECT_TRUE(arena.is_dirty(0, 128));  // DDIO: volatile until flushed
}

TEST_F(ArenaFixture, DmaPartialWhileInFlight) {
  // 4 KiB over 10 µs: halfway through, roughly half the chunks landed.
  const Bytes data = pattern(4096, 3);
  arena.dma_write(0, data, 0, 10'000);
  sim.run_until(5'000);
  const Bytes mid_state = arena.load(0, 4096);
  std::size_t placed = 0;
  for (std::size_t c = 0; c < 4096; c += 64) {
    if (std::equal(data.begin() + c, data.begin() + c + 64, mid_state.begin() + c)) {
      placed += 1;
    }
  }
  EXPECT_GT(placed, 20u);
  EXPECT_LT(placed, 44u);
}

TEST_F(ArenaFixture, SequentialDmaPlacesPrefixFirst) {
  const Bytes data = pattern(1024, 5);
  arena.dma_write(0, data, 0, 8'000, PlacementOrder::kSequential);
  sim.run_until(4'000);
  const Bytes mid = arena.load(0, 1024);
  // Find the last placed chunk; all earlier chunks must be placed.
  int last_placed = -1;
  for (int c = 0; c < 16; ++c) {
    if (std::equal(data.begin() + c * 64, data.begin() + (c + 1) * 64,
                   mid.begin() + c * 64)) {
      last_placed = c;
    }
  }
  ASSERT_GE(last_placed, 0);
  for (int c = 0; c <= last_placed; ++c) {
    EXPECT_TRUE(std::equal(data.begin() + c * 64,
                           data.begin() + (c + 1) * 64, mid.begin() + c * 64))
        << "gap in sequential placement at chunk " << c;
  }
}

TEST_F(ArenaFixture, CrashMidDmaLosesUnarrivedChunks) {
  const Bytes data = pattern(2048, 7);
  arena.dma_write(0, data, 0, 10'000);
  sim.run_until(5'000);
  arena.crash(CrashPolicy{.eviction_probability = 1.0});
  // Even with full eviction of dirty lines, chunks that had not arrived by
  // the crash are gone.
  const Bytes after = arena.load(0, 2048);
  std::size_t missing = 0;
  for (std::size_t c = 0; c < 2048; c += 64) {
    if (!std::equal(data.begin() + c, data.begin() + c + 64,
                    after.begin() + c)) {
      ++missing;
    }
  }
  EXPECT_GT(missing, 8u);  // roughly the second half
}

TEST_F(ArenaFixture, DmaZeroBytesIsNoop) {
  EXPECT_NO_THROW(arena.dma_write(0, Bytes{}, 0, 0));
  EXPECT_EQ(arena.stats().dma_writes, 0u);
}

TEST_F(ArenaFixture, DmaInstantaneousArrival) {
  const Bytes data = pattern(64);
  arena.dma_write(0, data, sim.now(), sim.now());
  EXPECT_EQ(arena.load(0, 64), data);
}

TEST_F(ArenaFixture, ShuffledDmaEventuallyCompletes) {
  const Bytes data = pattern(1024, 11);
  arena.dma_write(0, data, 0, 5'000, PlacementOrder::kShuffled);
  sim.run_until(5'000);
  EXPECT_EQ(arena.load(0, 1024), data);
}

TEST_F(ArenaFixture, OverlappingDmaLaterWins) {
  const Bytes first = pattern(256, 1);
  const Bytes second = pattern(256, 2);
  arena.dma_write(0, first, 0, 100);
  sim.run_until(200);
  arena.dma_write(0, second, sim.now(), sim.now() + 100);
  sim.run_until(400);
  EXPECT_EQ(arena.load(0, 256), second);
}

// Two placements in flight at once, one per order, each with an odd tail
// (7 full chunks + 13 bytes). One arena resolves at (and just before)
// every chunk's arrival instant, a twin with the same seed only at a few
// sparse instants: at every shared checkpoint both hold the same bytes,
// and the visible chunks are exactly those the arrival formula says have
// landed.
struct Flight {
  MemOffset off;
  Bytes data;
  SimTime start;
  SimTime end;
  PlacementOrder order;
};

std::size_t chunks_of(const Flight& f) {
  return (f.data.size() + Arena::kLine - 1) / Arena::kLine;
}

/// Arrival instant of chunk `i` (in placement order): chunks spread evenly
/// over [start, end], the last one exactly at `end`.
SimTime arrival_of(const Flight& f, std::size_t i) {
  const std::size_t n = chunks_of(f);
  if (n <= 1) return f.end;
  const double frac = static_cast<double>(i + 1) / static_cast<double>(n);
  return f.start + static_cast<SimTime>(std::llround(
                       frac * static_cast<double>(f.end - f.start)));
}

/// Which of the flight's chunks (by address) hold their final bytes.
std::vector<bool> visible_chunks(Arena& arena, const Flight& f) {
  const Bytes now = arena.load(f.off, f.data.size());
  std::vector<bool> out;
  for (std::size_t c = 0; c < chunks_of(f); ++c) {
    const std::size_t begin = c * Arena::kLine;
    const std::size_t end = std::min(begin + Arena::kLine, f.data.size());
    out.push_back(std::equal(f.data.begin() + begin, f.data.begin() + end,
                             now.begin() + begin));
  }
  return out;
}

TEST(Arena, DmaArrivalIsTheSameHoweverOftenResolved) {
  sim::Simulator sim;
  Arena dense{sim, kArenaSize, CostModel{}, 0x77};
  Arena sparse{sim, kArenaSize, CostModel{}, 0x77};
  constexpr std::size_t kLen = 7 * Arena::kLine + 13;
  const std::array<Flight, 2> flights{
      {{0, pattern(kLen, 3), 100, 4'100, PlacementOrder::kSequential},
       {1'024, pattern(kLen, 9), 1'500, 3'987, PlacementOrder::kShuffled}}};
  for (Arena* arena : {&dense, &sparse}) {
    for (const Flight& f : flights) {
      arena->dma_write(f.off, f.data, f.start, f.end, f.order);
    }
  }

  const std::set<SimTime> checkpoints{1'000, 2'345, 3'000, 3'986, 4'100};
  std::set<SimTime> instants = checkpoints;
  for (const Flight& f : flights) {
    for (std::size_t i = 0; i < chunks_of(f); ++i) {
      instants.insert(arrival_of(f, i) - 1);
      instants.insert(arrival_of(f, i));
    }
  }
  for (const SimTime t : instants) {
    sim.run_until(t);
    const bool checkpoint = checkpoints.count(t) != 0;
    for (const Flight& f : flights) {
      std::size_t arrived = 0;
      while (arrived < chunks_of(f) && arrival_of(f, arrived) <= t) {
        ++arrived;
      }
      const std::vector<bool> seen = visible_chunks(dense, f);
      EXPECT_EQ(static_cast<std::size_t>(
                    std::count(seen.begin(), seen.end(), true)),
                arrived)
          << "at " << t << ", placement at " << f.off;
      if (f.order == PlacementOrder::kSequential) {
        for (std::size_t c = 0; c < seen.size(); ++c) {
          EXPECT_EQ(seen[c], c < arrived) << "at " << t << ", chunk " << c;
        }
      }
      if (checkpoint) {
        EXPECT_EQ(visible_chunks(sparse, f), seen)
            << "at " << t << ", placement at " << f.off;
      }
    }
    if (checkpoint) {
      EXPECT_EQ(sparse.load(0, 2'048), dense.load(0, 2'048)) << "at " << t;
    }
  }
  for (const Flight& f : flights) {
    EXPECT_EQ(sparse.load(f.off, kLen), f.data);
  }
}

// ------------------------------------------------------------------ stats

TEST_F(ArenaFixture, StatsTrackOperations) {
  arena.store(0, pattern(100));
  arena.flush(0, 100);
  static_cast<void>(arena.load(0, 100));
  arena.dma_write(512, pattern(64), sim.now(), sim.now());
  arena.crash();
  const ArenaStats& s = arena.stats();
  EXPECT_EQ(s.cpu_stores, 1u);
  EXPECT_EQ(s.cpu_store_bytes, 100u);
  EXPECT_GE(s.cpu_loads, 1u);
  EXPECT_EQ(s.flushes, 1u);
  EXPECT_EQ(s.flushed_lines, 2u);
  EXPECT_EQ(s.dma_writes, 1u);
  EXPECT_EQ(s.dma_bytes, 64u);
  EXPECT_EQ(s.crashes, 1u);
}

}  // namespace
}  // namespace efac::nvm
