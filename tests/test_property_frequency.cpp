#include "core/property_frequency.hpp"

#include <gtest/gtest.h>

#include "graph/torus2d.hpp"
#include "stats/accumulator.hpp"

namespace antdense::core {
namespace {

using graph::Torus2D;

TEST(PropertyFrequency, ShapeAndTruths) {
  const Torus2D torus(16, 16);
  const auto r = estimate_property_frequency(torus, 20, 5, 50, 1);
  EXPECT_EQ(r.density_estimates.size(), 20u);
  EXPECT_EQ(r.property_estimates.size(), 20u);
  EXPECT_EQ(r.frequency_estimates.size(), 20u);
  EXPECT_DOUBLE_EQ(r.true_density, 19.0 / 256.0);
  EXPECT_DOUBLE_EQ(r.true_property_density, 5.0 / 256.0);
  EXPECT_NEAR(r.true_frequency, (5.0 / 256.0) / (19.0 / 256.0), 1e-12);
}

TEST(PropertyFrequency, ValidatesCounts) {
  const Torus2D torus(8, 8);
  EXPECT_THROW(estimate_property_frequency(torus, 1, 0, 10, 1),
               std::invalid_argument);
  EXPECT_THROW(estimate_property_frequency(torus, 5, 6, 10, 1),
               std::invalid_argument);
}

TEST(PropertyFrequency, FrequenciesInUnitInterval) {
  const Torus2D torus(16, 16);
  const auto r = estimate_property_frequency(torus, 30, 10, 200, 2);
  for (double f : r.frequency_estimates) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
}

TEST(PropertyFrequency, ZeroPropertyAgentsGiveZeroFrequency) {
  const Torus2D torus(16, 16);
  const auto r = estimate_property_frequency(torus, 12, 0, 100, 3);
  for (double f : r.frequency_estimates) {
    EXPECT_DOUBLE_EQ(f, 0.0);
  }
}

TEST(PropertyFrequency, AllPropertyAgentsGiveFrequencyOne) {
  const Torus2D torus(16, 16);
  const auto r = estimate_property_frequency(torus, 12, 12, 400, 4);
  for (std::size_t i = 0; i < r.frequency_estimates.size(); ++i) {
    if (r.density_estimates[i] > 0.0) {
      EXPECT_DOUBLE_EQ(r.frequency_estimates[i], 1.0);
    }
  }
}

TEST(PropertyFrequency, MeanFrequencyNearTruth) {
  // Section 5.2's claim: f~ concentrates around f_P.  Pool many runs on a
  // dense torus so most agents see collisions.
  const Torus2D torus(24, 24);
  constexpr std::uint32_t kAgents = 120;
  constexpr std::uint32_t kProperty = 30;  // f_P ~ 0.25
  stats::Accumulator acc;
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    const auto r = estimate_property_frequency(torus, kAgents, kProperty,
                                               600, 700 + trial);
    for (std::size_t i = 0; i < r.frequency_estimates.size(); ++i) {
      if (r.density_estimates[i] > 0.0) {
        acc.add(r.frequency_estimates[i]);
      }
    }
  }
  // Per-agent truth differs slightly by own membership; population value:
  EXPECT_NEAR(acc.mean(), 0.25, 0.02);
}

TEST(PropertyFrequency, DeterministicInSeed) {
  const Torus2D torus(16, 16);
  const auto a = estimate_property_frequency(torus, 20, 5, 50, 9);
  const auto b = estimate_property_frequency(torus, 20, 5, 50, 9);
  EXPECT_EQ(a.frequency_estimates, b.frequency_estimates);
}

TEST(PropertyFrequency, ShardedIsThreadCountInvariant) {
  // 40 agents in 8-agent shards: five shards per round, so four
  // threads really interleave the observer hooks.
  const Torus2D torus(16, 16);
  const auto run = [&](unsigned threads) {
    return estimate_property_frequency(
        torus, 40, 10, 60, 21, /*lazy_probability=*/0.25,
        sim::ShardExec{.threads = threads, .shard_size = 8});
  };
  const PropertyFrequencyResult one = run(1);
  const PropertyFrequencyResult four = run(4);
  EXPECT_EQ(one.density_estimates, four.density_estimates);
  EXPECT_EQ(one.frequency_estimates, four.frequency_estimates);
  EXPECT_NE(one.density_estimates,
            estimate_property_frequency(
                torus, 40, 10, 60, 21, /*lazy_probability=*/0.0,
                sim::ShardExec{.threads = 1, .shard_size = 8})
                .density_estimates)
      << "the lazy knob must reach the walk";
}

}  // namespace
}  // namespace antdense::core
