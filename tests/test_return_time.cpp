#include "walk/return_time.hpp"

#include <gtest/gtest.h>

#include "graph/complete.hpp"
#include "graph/hypercube.hpp"
#include "graph/ring.hpp"
#include "graph/torus2d.hpp"
#include "graph/torus_kd.hpp"

namespace antdense::walk {
namespace {

TEST(FirstReturn, KacFormulaOnCompleteGraph) {
  // E[first return] = A for any regular graph; on K_A returns are
  // near-geometric so a cap of 40A leaves negligible censoring.
  const graph::CompleteGraph g(64);
  const auto stats = measure_first_return(g, 64 * 40, 40000, 1, 2);
  EXPECT_LT(stats.censored_fraction, 0.01);
  EXPECT_NEAR(stats.mean, 64.0, 3.0);
}

TEST(FirstReturn, KacFormulaOnHypercube) {
  const graph::Hypercube g(6);  // A = 64
  const auto stats = measure_first_return(g, 64 * 60, 40000, 2, 2);
  EXPECT_LT(stats.censored_fraction, 0.02);
  // Censoring trims the heaviest tail, so allow a slightly low mean.
  EXPECT_NEAR(stats.mean, 64.0, 6.0);
}

TEST(FirstReturn, KacFormulaOnTorus3D) {
  const graph::TorusKD g(3, 6);  // A = 216
  const auto stats = measure_first_return(g, 216 * 40, 40000, 8, 2);
  EXPECT_LT(stats.censored_fraction, 0.02);
  EXPECT_NEAR(stats.mean, 216.0, 0.1 * 216.0);
}

TEST(FirstReturn, RingHeavyTailCensorsMore) {
  // The ring's return time is heavy-tailed (P[T > m] ~ m^{-1/2}); with
  // the same relative cap, far more mass is censored than on K_A.
  const graph::Ring ring(64);
  const graph::CompleteGraph complete(64);
  const auto ring_stats = measure_first_return(ring, 64 * 40, 20000, 3, 2);
  const auto complete_stats =
      measure_first_return(complete, 64 * 40, 20000, 3, 2);
  EXPECT_GT(ring_stats.censored_fraction,
            5.0 * complete_stats.censored_fraction + 0.001);
}

TEST(FirstReturn, TorusParityMakesReturnsEven) {
  const graph::Torus2D torus(8, 8);
  const auto stats = measure_first_return(torus, 4096, 5000, 4, 2);
  for (double s : stats.samples) {
    EXPECT_EQ(static_cast<std::uint64_t>(s) % 2, 0u);
  }
}

TEST(FirstMeeting, UniformStartsSometimesCoincide) {
  const graph::CompleteGraph g(16);
  const auto stats = measure_first_meeting(g, 2000, 30000, 5, 2);
  // P[same start] = 1/16: some zero meeting times must occur.
  std::uint64_t zeros = 0;
  for (double s : stats.samples) {
    zeros += s == 0.0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 30000.0, 1.0 / 16.0, 0.01);
}

TEST(FirstMeeting, DenserGraphMeetsSooner) {
  const graph::CompleteGraph small(32);
  const graph::CompleteGraph large(256);
  const auto fast = measure_first_meeting(small, 1 << 14, 20000, 6, 2);
  const auto slow = measure_first_meeting(large, 1 << 14, 20000, 6, 2);
  EXPECT_LT(fast.mean, slow.mean);
}

TEST(FirstMeeting, SamplesRespectCap) {
  const graph::Torus2D torus(32, 32);
  const auto stats = measure_first_meeting(torus, 500, 5000, 7, 2);
  for (double s : stats.samples) {
    EXPECT_LE(s, 500.0);
  }
  EXPECT_GE(stats.censored_fraction, 0.0);
}

}  // namespace
}  // namespace antdense::walk
