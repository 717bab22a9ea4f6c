#include "walk/recollision.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "graph/complete.hpp"
#include "graph/hypercube.hpp"
#include "graph/ring.hpp"
#include "graph/torus2d.hpp"
#include "util/hash.hpp"
#include "walk/equalization.hpp"
#include "walk/range.hpp"
#include "walk/return_time.hpp"
#include "walk/visits.hpp"

namespace antdense::walk {
namespace {

using graph::CompleteGraph;
using graph::Hypercube;
using graph::Ring;
using graph::Torus2D;

TEST(RecollisionCurve, StartsAtProbabilityOne) {
  const Torus2D torus(32, 32);
  const auto curve = measure_recollision_curve(torus, 4, 2000, 1, 2);
  EXPECT_DOUBLE_EQ(curve.probability[0], 1.0);
  EXPECT_EQ(curve.trials, 2000u);
  EXPECT_EQ(curve.probability.size(), 5u);
}

TEST(RecollisionCurve, Torus2DExactValueAtM1) {
  // Both agents step to the same neighbor: 4 * (1/4)^2 = 1/4.
  const Torus2D torus(64, 64);
  const auto curve = measure_recollision_curve(torus, 1, 60000, 2, 2);
  EXPECT_NEAR(curve.probability[1], 0.25, 0.01);
}

TEST(RecollisionCurve, HypercubeExactValueAtM1) {
  // Both flip the same of k bits: 1/k.
  const Hypercube cube(8);
  const auto curve = measure_recollision_curve(cube, 1, 60000, 3, 2);
  EXPECT_NEAR(curve.probability[1], 1.0 / 8.0, 0.01);
}

TEST(RecollisionCurve, RingExactValueAtM1) {
  // Both step the same direction: 2 * (1/2)^2 = 1/2.
  const Ring ring(128);
  const auto curve = measure_recollision_curve(ring, 1, 60000, 4, 2);
  EXPECT_NEAR(curve.probability[1], 0.5, 0.01);
}

TEST(RecollisionCurve, CompleteGraphIsUniform) {
  // After any m >= 1, both agents are at independent near-uniform nodes:
  // P ~ 1/(A-1) (both move to one of A-1 others... empirically ~1/A).
  const CompleteGraph g(256);
  const auto curve = measure_recollision_curve(g, 3, 60000, 5, 2);
  for (std::uint32_t m = 1; m <= 3; ++m) {
    EXPECT_NEAR(curve.probability[m], 1.0 / 256.0, 0.005) << "m=" << m;
  }
}

TEST(RecollisionCurve, DecaysOnTorus) {
  const Torus2D torus(128, 128);
  const auto curve = measure_recollision_curve(torus, 64, 40000, 6, 2);
  // Compare averages of early vs late windows (even m only — odd m are
  // noisier since the relative walk is lazy-like but collisions can
  // occur at any parity here because both walkers move).
  double early = 0.0, late = 0.0;
  for (std::uint32_t m = 1; m <= 8; ++m) early += curve.probability[m];
  for (std::uint32_t m = 57; m <= 64; ++m) late += curve.probability[m];
  EXPECT_GT(early / 8.0, 4.0 * (late / 8.0));
}

TEST(RecollisionCurve, DeterministicAcrossThreadCounts) {
  const Torus2D torus(32, 32);
  const auto a = measure_recollision_curve(torus, 8, 10000, 7, 1);
  const auto b = measure_recollision_curve(torus, 8, 10000, 7, 2);
  EXPECT_EQ(a.hits, b.hits);
}

TEST(PairCollisionCounts, AtLeastZeroAndBoundedByT) {
  const Torus2D torus(64, 64);
  const auto counts = pair_collision_counts_given_first(torus, 32, 5000, 8, 2);
  ASSERT_EQ(counts.size(), 5000u);
  for (double c : counts) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 32.0);
  }
}

TEST(PairCollisionCounts, MeanGrowsLogarithmically) {
  // E[collisions in t rounds | collision at 0] = sum_m Theta(1/m) ~ log t:
  // quadrupling t should add roughly a constant, not multiply.
  const Torus2D torus(256, 256);
  const auto short_counts =
      pair_collision_counts_given_first(torus, 64, 30000, 9, 2);
  const auto long_counts =
      pair_collision_counts_given_first(torus, 256, 30000, 9, 2);
  double mean_short = 0.0, mean_long = 0.0;
  for (double c : short_counts) mean_short += c;
  for (double c : long_counts) mean_long += c;
  mean_short /= static_cast<double>(short_counts.size());
  mean_long /= static_cast<double>(long_counts.size());
  EXPECT_GT(mean_long, mean_short);
  EXPECT_LT(mean_long, 2.0 * mean_short)
      << "log growth expected, got " << mean_short << " -> " << mean_long;
}

/// Appends the bytes of every value to `out`, for content hashing.
void put(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
void put(std::string& out, double v) {
  put(out, std::bit_cast<std::uint64_t>(v));
}
template <typename V>
void put_all(std::string& out, const std::vector<V>& values) {
  put(out, static_cast<std::uint64_t>(values.size()));
  for (const V v : values) put(out, v);
}

/// Every estimator's full output on one topology.  Trial counts span
/// more than one block of each estimator's fan-out (4096 / 1024 / 512 /
/// 256), so a changed block size or seed tag moves the bytes.
template <graph::Topology T>
void put_estimators(std::string& out, const T& topo, unsigned threads) {
  constexpr std::uint64_t kSeed = 0x5EED;
  const auto recollision =
      measure_recollision_curve(topo, 12, 8200, kSeed, threads);
  put_all(out, recollision.probability);
  put_all(out, recollision.hits);
  put(out, recollision.trials);
  put_all(out,
          pair_collision_counts_given_first(topo, 24, 2500, kSeed, threads));
  const auto equalization =
      measure_equalization_curve(topo, 12, 8200, kSeed, threads);
  put_all(out, equalization.probability);
  put_all(out, equalization.hits);
  put(out, equalization.trials);
  put_all(out, equalization_counts(topo, 24, 2500, kSeed, threads));
  for (const FirstTimeStats& stats :
       {measure_first_return(topo, 150, 1300, kSeed, threads),
        measure_first_meeting(topo, 150, 1300, kSeed, threads)}) {
    put(out, stats.mean);
    put(out, stats.censored_fraction);
    put_all(out, stats.samples);
  }
  rng::Xoshiro256pp pick(3);
  const auto visits =
      measure_visits(topo, topo.random_node(pick), 40, 2500, kSeed, threads);
  put(out, visits.p_visit);
  put(out, visits.mean_visits_given_any);
  put(out, visits.mean_visits);
  put_all(out, visits.counts);
  const auto range = measure_walk_range(topo, 40, 700, kSeed, threads);
  put(out, range.mean_range);
  put(out, range.mean_range_fraction);
  put_all(out, range.samples);
}

// Pins the exact output of all eight Monte Carlo estimators (the
// block-seeded trial fan-out: block size, seed tag and in-block order)
// on three families, for one and for three worker threads.
TEST(WalkEstimators, OutputsArePinned) {
  for (const unsigned threads : {1u, 3u}) {
    SCOPED_TRACE(threads);
    std::string bytes;
    put_estimators(bytes, Torus2D(12, 10), threads);
    put_estimators(bytes, Ring(64), threads);
    put_estimators(bytes, Hypercube(6), threads);
    EXPECT_EQ(util::hex64(util::fnv1a64(bytes)), "19c2b1742ce92cc6");
  }
}

}  // namespace
}  // namespace antdense::walk
