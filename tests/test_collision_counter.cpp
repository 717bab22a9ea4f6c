#include "sim/collision_counter.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/worker_pool.hpp"

namespace antdense::sim {
namespace {

TEST(CollisionCounter, RequiresPositiveCapacity) {
  EXPECT_THROW(CollisionCounter(0), std::invalid_argument);
}

TEST(CollisionCounter, AddBeforeBeginRoundThrows) {
  CollisionCounter c(4);
  EXPECT_THROW(c.add(1), std::invalid_argument);
}

TEST(CollisionCounter, CountsWithinRound) {
  CollisionCounter c(8);
  c.begin_round();
  EXPECT_EQ(c.add(42), 1u);
  EXPECT_EQ(c.add(42), 2u);
  EXPECT_EQ(c.add(42), 3u);
  EXPECT_EQ(c.add(7), 1u);
  EXPECT_EQ(c.occupancy(42), 3u);
  EXPECT_EQ(c.occupancy(7), 1u);
  EXPECT_EQ(c.occupancy(99), 0u);
}

TEST(CollisionCounter, RoundsAreIndependent) {
  CollisionCounter c(8);
  c.begin_round();
  c.add(5);
  c.add(5);
  c.begin_round();
  EXPECT_EQ(c.occupancy(5), 0u);
  EXPECT_EQ(c.add(5), 1u);
}

TEST(CollisionCounter, OccupancyBeforeFirstRoundIsZero) {
  CollisionCounter c(4);
  EXPECT_EQ(c.occupancy(1), 0u);
}

TEST(CollisionCounter, HandlesCollidingHashSlots) {
  // Fill to declared capacity with distinct keys spanning a wide range;
  // linear probing must keep all counts separate.
  constexpr std::size_t kKeys = 64;
  CollisionCounter c(kKeys);
  c.begin_round();
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(c.add(k * 0x9E3779B97F4A7C15ULL), 1u);
  }
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(c.occupancy(k * 0x9E3779B97F4A7C15ULL), 1u);
  }
}

TEST(CollisionCounter, OverCapacityIsAnInvariantViolation) {
  CollisionCounter c(2);
  c.begin_round();
  c.add(1);
  c.add(2);
  EXPECT_THROW(c.add(3), std::logic_error);
}

TEST(CollisionCounter, RepeatedKeysDoNotConsumeCapacity) {
  CollisionCounter c(2);
  c.begin_round();
  for (int i = 0; i < 100; ++i) {
    c.add(77);
  }
  EXPECT_EQ(c.occupancy(77), 100u);
  EXPECT_EQ(c.add(78), 1u);
}

TEST(CollisionCounter, ManyRoundsStayCorrect) {
  CollisionCounter c(4);
  for (int r = 0; r < 10000; ++r) {
    c.begin_round();
    c.add(r % 7);
    c.add(r % 7);
    EXPECT_EQ(c.occupancy(r % 7), 2u);
  }
}

TEST(CollisionCounter, CapacityIsPowerOfTwoTimesFour) {
  CollisionCounter c(10);
  EXPECT_GE(c.capacity(), 40u);
  EXPECT_EQ(c.capacity() & (c.capacity() - 1), 0u);
}

// --- add_concurrent ---------------------------------------------------

TEST(CollisionCounter, SerialAndConcurrentAddsAgree) {
  // Same heavily colliding keys through serial add, single-threaded
  // add_concurrent, and add_concurrent from a pool, over two rounds so
  // the second round's stale-slot claims race too: occupancy must be
  // exact in all three.  Spread keys share a small table, so claims
  // also race along probe chains.
  constexpr std::uint64_t kKeys = 37;
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> expect(kKeys, 0);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const std::uint64_t k = (i * 7) % kKeys;
    keys.push_back(k * 0x9E3779B97F4A7C15ULL);
    ++expect[k];
  }
  CollisionCounter serial(kKeys);
  CollisionCounter atomic_1t(kKeys);
  CollisionCounter parallel(kKeys);
  util::WorkerPool pool(4);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    serial.begin_round();
    atomic_1t.begin_round();
    parallel.begin_round();
    for (std::uint64_t k : keys) {
      serial.add(k);
      atomic_1t.add_concurrent(k);
    }
    pool.run(keys.size(),
             [&](std::size_t i) { parallel.add_concurrent(keys[i]); });
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      const std::uint64_t key = k * 0x9E3779B97F4A7C15ULL;
      EXPECT_EQ(serial.occupancy(key), expect[k]) << k;
      EXPECT_EQ(atomic_1t.occupancy(key), expect[k]) << k;
      EXPECT_EQ(parallel.occupancy(key), expect[k]) << k;
    }
    EXPECT_EQ(parallel.occupancy(kKeys * 0x9E3779B97F4A7C15ULL), 0u);
  }
}

TEST(CollisionCounter, ConcurrentAddBeforeBeginRoundThrows) {
  CollisionCounter c(4);
  EXPECT_THROW(c.add_concurrent(1), std::invalid_argument);
}

TEST(CollisionCounter, EpochInvalidatesConcurrentRound) {
  CollisionCounter c(8);
  c.begin_round();
  c.add_concurrent(5);
  c.add_concurrent(5);
  EXPECT_EQ(c.occupancy(5), 2u);
  c.begin_round();
  EXPECT_EQ(c.occupancy(5), 0u);
  c.add_concurrent(5);
  EXPECT_EQ(c.occupancy(5), 1u);
  EXPECT_EQ(c.add(5), 2u);
}

}  // namespace
}  // namespace antdense::sim
