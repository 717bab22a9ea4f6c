#include "core/independent_sampling.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "core/bounds.hpp"
#include "graph/torus2d.hpp"
#include "stats/accumulator.hpp"
#include "stats/concentration.hpp"
#include "util/hash.hpp"

namespace antdense::core {
namespace {

using graph::Torus2D;

TEST(IndependentSampling, ValidatesArguments) {
  const Torus2D torus(32, 32);
  EXPECT_THROW(run_independent_sampling(torus, 1, 8, 1),
               std::invalid_argument);
  EXPECT_THROW(run_independent_sampling(torus, 10, 0, 1),
               std::invalid_argument);
  // t must stay below the height (no wraparound).
  EXPECT_THROW(run_independent_sampling(torus, 10, 32, 1),
               std::invalid_argument);
  EXPECT_NO_THROW(run_independent_sampling(torus, 10, 31, 1));
}

TEST(IndependentSampling, DeterministicInSeed) {
  const Torus2D torus(64, 64);
  const auto a = run_independent_sampling(torus, 50, 32, 3);
  const auto b = run_independent_sampling(torus, 50, 32, 3);
  EXPECT_EQ(a.estimates, b.estimates);
}

TEST(IndependentSampling, UnbiasedMean) {
  const Torus2D torus(48, 48);
  constexpr std::uint32_t kAgents = 231;  // d ~ 0.1
  const double d = (kAgents - 1.0) / 2304.0;
  stats::Accumulator acc;
  for (std::uint64_t trial = 0; trial < 150; ++trial) {
    const auto r = run_independent_sampling(torus, kAgents, 40, 500 + trial);
    for (double e : r.estimates) {
      acc.add(e);
    }
  }
  EXPECT_NEAR(acc.mean(), d, 5.0 * acc.standard_error() + 1e-12);
}

TEST(IndependentSampling, StackedWalkersCorrectedByModT) {
  // Force all agents onto one node with both states present: agents in
  // the same state collide every round (t-fold trains) and the mod-t
  // correction must remove those trains entirely.
  // With a population of only co-located walkers + stationaries, each
  // walker sees (others in same state) every round plus stationary hits.
  // The estimate must stay finite and below 2 (Theorem 32's failure cap).
  const Torus2D torus(64, 64);
  const auto r = run_independent_sampling(torus, 200, 60, 7);
  for (double e : r.estimates) {
    EXPECT_GE(e, 0.0);
    EXPECT_LT(e, 2.0);
  }
}

TEST(IndependentSampling, AccuracyMatchesChernoffShape) {
  const Torus2D torus(128, 128);
  constexpr std::uint32_t kAgents = 1639;  // d ~ 0.1
  const double d = (kAgents - 1.0) / 16384.0;
  std::vector<double> all;
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    const auto r =
        run_independent_sampling(torus, kAgents, 100, 900 + trial);
    all.insert(all.end(), r.estimates.begin(), r.estimates.end());
  }
  const double eps90 = stats::epsilon_at_confidence(all, d, 0.9);
  const double theory = independent_sampling_epsilon(100, d, 0.1);
  EXPECT_LT(eps90, theory) << "measured " << eps90 << " theory " << theory;
}

// Pins the placement and coin-flip stream (derive_seed(seed, 0xA14):
// node, then state, agent by agent) and the mod-t correction through
// every agent's estimate, on a square and a wide torus.
TEST(IndependentSampling, OutputsArePinned) {
  std::string bytes;
  const auto row = [&](const Torus2D& torus, std::uint32_t agents,
                       std::uint32_t rounds, std::uint64_t seed) {
    const auto r = run_independent_sampling(torus, agents, rounds, seed);
    for (const double e : r.estimates) {
      const auto v = std::bit_cast<std::uint64_t>(e);
      bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
    }
  };
  row(Torus2D(32, 32), 90, 31, 1);
  row(Torus2D(64, 64), 200, 60, 7);
  row(Torus2D(96, 40), 150, 39, 99);
  row(Torus2D(48, 48), 231, 40, 500);
  EXPECT_EQ(util::hex64(util::fnv1a64(bytes)), "2680b24cdb16dfc5");
}

}  // namespace
}  // namespace antdense::core
