#include "swarm/task_allocation.hpp"

#include <gtest/gtest.h>

#include "graph/torus2d.hpp"
#include "stats/accumulator.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"

namespace antdense::swarm {
namespace {

using graph::Torus2D;

TEST(SwarmConfig, Validation) {
  SwarmConfig cfg;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.group_sizes = {1};
  cfg.rounds = 10;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);  // < 2 agents
  cfg.group_sizes = {1, 1};
  EXPECT_NO_THROW(cfg.validate());
}

TEST(SwarmEstimation, ShapeAndGroupAssignment) {
  const Torus2D torus(16, 16);
  SwarmConfig cfg;
  cfg.group_sizes = {10, 20, 30};
  cfg.rounds = 40;
  const SwarmResult r = run_swarm_estimation(torus, cfg, 1);
  EXPECT_EQ(r.group_of_agent.size(), 60u);
  EXPECT_EQ(r.density_estimates.size(), 60u);
  EXPECT_EQ(r.group_frequency_estimates.size(), 60u);
  std::vector<int> counts(3, 0);
  for (std::uint32_t g : r.group_of_agent) {
    ASSERT_LT(g, 3u);
    ++counts[g];
  }
  EXPECT_EQ(counts[0], 10);
  EXPECT_EQ(counts[1], 20);
  EXPECT_EQ(counts[2], 30);
  EXPECT_DOUBLE_EQ(r.true_frequencies[0], 10.0 / 60.0);
  EXPECT_DOUBLE_EQ(r.true_frequencies[2], 0.5);
}

TEST(SwarmEstimation, FrequenciesSumToOneWhenAnyEncounter) {
  const Torus2D torus(12, 12);
  SwarmConfig cfg;
  cfg.group_sizes = {20, 20};
  cfg.rounds = 100;
  const SwarmResult r = run_swarm_estimation(torus, cfg, 2);
  for (std::size_t a = 0; a < 40; ++a) {
    double sum = 0.0;
    for (double f : r.group_frequency_estimates[a]) {
      sum += f;
    }
    if (r.density_estimates[a] > 0.0) {
      EXPECT_NEAR(sum, 1.0, 1e-9) << "agent " << a;
    } else {
      EXPECT_DOUBLE_EQ(sum, 0.0);
    }
  }
}

TEST(SwarmEstimation, MeanFrequencyTracksGroupShares) {
  const Torus2D torus(24, 24);
  SwarmConfig cfg;
  cfg.group_sizes = {90, 30};  // shares 0.75 / 0.25
  cfg.rounds = 500;
  stats::Accumulator f0;
  for (std::uint64_t trial = 0; trial < 30; ++trial) {
    const SwarmResult r = run_swarm_estimation(torus, cfg, 100 + trial);
    for (std::size_t a = 0; a < r.group_frequency_estimates.size(); ++a) {
      if (r.density_estimates[a] > 0.0) {
        f0.add(r.group_frequency_estimates[a][0]);
      }
    }
  }
  EXPECT_NEAR(f0.mean(), 0.75, 0.02);
}

TEST(SwarmEstimation, SingleGroupFrequencyIsOne) {
  const Torus2D torus(12, 12);
  SwarmConfig cfg;
  cfg.group_sizes = {30};
  cfg.rounds = 200;
  const SwarmResult r = run_swarm_estimation(torus, cfg, 4);
  for (std::size_t a = 0; a < 30; ++a) {
    if (r.density_estimates[a] > 0.0) {
      EXPECT_DOUBLE_EQ(r.group_frequency_estimates[a][0], 1.0);
    }
  }
}

TEST(SwarmEstimation, DeterministicInSeed) {
  const Torus2D torus(12, 12);
  SwarmConfig cfg;
  cfg.group_sizes = {8, 8};
  cfg.rounds = 30;
  const SwarmResult a = run_swarm_estimation(torus, cfg, 9);
  const SwarmResult b = run_swarm_estimation(torus, cfg, 9);
  EXPECT_EQ(a.density_estimates, b.density_estimates);
  EXPECT_EQ(a.group_of_agent, b.group_of_agent);
}

// Pins the group assignment (its own derive_seed(seed, 0x5A11) stream)
// and the walk stream (derive_seed(seed, 0x5A22): placement, then every
// step, agent by agent) through every per-group estimate.
TEST(SwarmEstimation, ResultHashIsPinned) {
  const Torus2D torus(12, 12);
  SwarmConfig cfg;
  cfg.group_sizes = {10, 15, 20};
  cfg.rounds = 64;
  const SwarmResult r = run_swarm_estimation(torus, cfg, 17);
  std::string bytes;
  for (std::size_t a = 0; a < r.density_estimates.size(); ++a) {
    bytes += std::to_string(r.group_of_agent[a]) + ':' +
             util::format_shortest(r.density_estimates[a]);
    for (double f : r.group_frequency_estimates[a]) {
      bytes += ',' + util::format_shortest(f);
    }
    bytes += ';';
  }
  EXPECT_EQ(util::hex64(util::fnv1a64(bytes)), "c30a46c758d724f4");
}

}  // namespace
}  // namespace antdense::swarm
