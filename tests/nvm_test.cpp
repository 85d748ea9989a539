// Unit tests for the simulated NVM arena: volatility boundary, flush
// semantics, chunked DMA arrival, and crash behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
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

// A line's persisted bytes are the ones it held when it was first written
// after its last flush (or crash): later writes to the still-dirty line
// change nothing of what a crash restores.
TEST_F(ArenaFixture, CrashRestoresBytesFromBeforeTheFirstDirtyingWrite) {
  arena.store(0, pattern(64, 1));
  arena.flush(0, 64);
  arena.store(0, pattern(64, 2));
  arena.store(16, pattern(32, 3));
  arena.store(64, pattern(64, 4));  // line 1 was all zero when dirtied
  arena.store_u64(96, 0x0123456789ABCDEFULL);
  arena.crash(CrashPolicy{.eviction_probability = 0.0});
  EXPECT_EQ(arena.load(0, 64), pattern(64, 1));
  EXPECT_EQ(arena.load(64, 64), Bytes(64, 0));
}

TEST_F(ArenaFixture, CrashAfterFlushAndRewriteRestoresTheFlushedBytes) {
  arena.store(128, pattern(64, 1));
  arena.flush(128, 64);
  arena.store(128, pattern(64, 2));
  arena.flush(130, 1);  // any byte of the line persists all of it
  arena.store(136, pattern(40, 3));
  EXPECT_EQ(arena.persisted_bytes(128, 64), pattern(64, 2));
  arena.crash(CrashPolicy{.eviction_probability = 0.0});
  EXPECT_EQ(arena.load(128, 64), pattern(64, 2));
}

TEST_F(ArenaFixture, CrashAtZeroEvictionRestoresZeroAndNonZeroLines) {
  // Line 0 was never persisted; line 1 persisted a non-zero pattern; line 2
  // persisted zeros over earlier non-zero bytes; line 3 persisted one
  // non-zero word among zeros.
  arena.store(64, pattern(64, 5));
  arena.store(128, pattern(64, 6));
  arena.store(128, Bytes(64, 0));
  arena.store_u64(248, 7);
  arena.flush(64, 192);
  for (MemOffset line = 0; line < 256; line += 64) {
    arena.store(line, pattern(64, 9));
  }
  arena.crash(CrashPolicy{.eviction_probability = 0.0});
  Bytes word_line(64, 0);
  word_line[56] = 7;
  EXPECT_EQ(arena.load(0, 64), Bytes(64, 0));
  EXPECT_EQ(arena.load(64, 64), pattern(64, 5));
  EXPECT_EQ(arena.load(128, 64), Bytes(64, 0));
  EXPECT_EQ(arena.load(192, 64), word_line);
  EXPECT_FALSE(arena.is_dirty(0, 256));
}

TEST_F(ArenaFixture, PersistedBytesOverAPartlyDirtyRange) {
  // Lines 0-3 persisted, then lines 1 and 2 rewritten (line 2 only in
  // part); the range starts and ends inside a clean line.
  const Bytes before = pattern(256, 1);
  arena.store(0, before);
  arena.flush(0, 256);
  arena.store(64, pattern(64, 2));
  arena.store(150, pattern(20, 3));
  arena.store(512, pattern(64, 4));  // dirty, never persisted
  EXPECT_EQ(arena.persisted_bytes(32, 192),
            Bytes(before.begin() + 32, before.begin() + 224));
  Bytes expected(before.begin() + 200, before.end());
  expected.resize(56 + 256 + 64, 0);
  EXPECT_EQ(arena.persisted_bytes(200, expected.size()), expected);
  arena.flush(150, 1);  // line 2 only
  const Bytes now = arena.load(128, 64);
  EXPECT_EQ(arena.persisted_bytes(128, 64), now);
  EXPECT_EQ(arena.persisted_bytes(64, 64), Bytes(before.begin() + 64,
                                                 before.begin() + 128));
}

/// FNV-1a over a byte range: a compact fingerprint of an arena image.
std::uint64_t digest(BytesView bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

// A seeded script of stores, aligned word stores, overlapping sequential
// and shuffled DMA writes (some still in flight at each crash), partial-line
// flushes and crashes at eviction 0, 0.5 and 1 over a 128-line arena. The
// digests of the persisted image before each crash and of the whole image
// and the persisted image after it are pinned: the crash model's outcome,
// RNG draws included, must stay bit-identical however the arena keeps its
// persisted bytes.
TEST(Arena, SeededCrashScriptMatchesGoldenDigests) {
  constexpr std::size_t kSize = 128 * Arena::kLine;
  sim::Simulator sim;
  Arena arena{sim, kSize, CostModel{}, 0xC0FFEE};
  Rng rng{2024};
  const auto random_bytes = [&rng](std::size_t len) {
    Bytes out(len, 0);
    if (rng.next_below(6) != 0) {  // else all zeros
      for (auto& b : out) b = static_cast<std::uint8_t>(rng());
    }
    return out;
  };
  const auto random_range = [&rng](std::size_t max_len, MemOffset& off,
                                   std::size_t& len) {
    len = 1 + rng.next_below(max_len);
    off = rng.next_below(kSize - len + 1);
  };
  constexpr std::array<double, 3> kEviction{0.0, 0.5, 1.0};
  std::vector<std::uint64_t> digests;
  for (int round = 0; round < 12; ++round) {
    for (int step = 0; step < 48; ++step) {
      sim.run_until(sim.now() + static_cast<SimTime>(rng.next_below(300)));
      MemOffset off = 0;
      std::size_t len = 0;
      const std::uint64_t op = rng.next_below(10);
      if (op < 3) {
        random_range(200, off, len);
        arena.store(off, random_bytes(len));
      } else if (op < 4) {
        const MemOffset word = rng.next_below(kSize / Arena::kAtomicUnit);
        arena.store_u64(word * Arena::kAtomicUnit,
                        rng.next_below(2) != 0 ? rng() : 0);
      } else if (op < 7) {
        random_range(600, off, len);
        const SimTime start = sim.now();
        const SimTime end = start + static_cast<SimTime>(rng.next_below(2000));
        arena.dma_write(off, random_bytes(len), start, end,
                        rng.next_below(2) != 0 ? PlacementOrder::kShuffled
                                               : PlacementOrder::kSequential);
      } else {
        random_range(300, off, len);
        arena.flush(off, len);
      }
    }
    digests.push_back(digest(arena.persisted_bytes(0, kSize)));
    arena.crash(CrashPolicy{.eviction_probability = kEviction[round % 3]});
    digests.push_back(digest(arena.load(0, kSize)));
    digests.push_back(digest(arena.persisted_bytes(0, kSize)));
  }
  // One crash per row, recorded from an arena that kept a full persisted
  // image beside the current one.
  const std::vector<std::uint64_t> golden{
      0x9a69f8dcd81e56d0ULL, 0x9a69f8dcd81e56d0ULL, 0x9a69f8dcd81e56d0ULL,
      0x3734fdbb19dd0972ULL, 0x1eaacfc70e266d8dULL, 0x1eaacfc70e266d8dULL,
      0xf19db634793ce8beULL, 0xba1a781d29338636ULL, 0xba1a781d29338636ULL,
      0xb06d7eb574e24536ULL, 0xb06d7eb574e24536ULL, 0xb06d7eb574e24536ULL,
      0xca5c4f5f08a469bdULL, 0x943978acc2e49fa0ULL, 0x943978acc2e49fa0ULL,
      0xbdf5f3358ec3c458ULL, 0xcbfc812e8cdd7ffeULL, 0xcbfc812e8cdd7ffeULL,
      0xdf0da51a618864cbULL, 0xdf0da51a618864cbULL, 0xdf0da51a618864cbULL,
      0x1f89f47c42ad5e04ULL, 0xfc0d3f05ea52a68eULL, 0xfc0d3f05ea52a68eULL,
      0x672029fbbbef7369ULL, 0x0d12ed9ed25280a2ULL, 0x0d12ed9ed25280a2ULL,
      0x8433d6db8591ad66ULL, 0x8433d6db8591ad66ULL, 0x8433d6db8591ad66ULL,
      0x141b3d230951b6b1ULL, 0x0c51b12c18943385ULL, 0x0c51b12c18943385ULL,
      0x51bbfc6ded19686fULL, 0x841f1f480b0d5d56ULL, 0x841f1f480b0d5d56ULL,
  };
  EXPECT_EQ(digests, golden);
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
  const Arena::Counters& s = arena.stats();
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
