#include "sim/trajectory.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/torus2d.hpp"
#include "stats/accumulator.hpp"

namespace antdense::sim {
namespace {

using graph::Torus2D;

TEST(Trajectory, ValidatesArguments) {
  const Torus2D torus(16, 16);
  EXPECT_THROW(run_trajectory(torus, 1, 1, {10}, 1), std::invalid_argument);
  EXPECT_THROW(run_trajectory(torus, 10, 0, {10}, 1), std::invalid_argument);
  EXPECT_THROW(run_trajectory(torus, 10, 11, {10}, 1),
               std::invalid_argument);
  EXPECT_THROW(run_trajectory(torus, 10, 2, {}, 1), std::invalid_argument);
  EXPECT_THROW(run_trajectory(torus, 10, 2, {10, 10}, 1),
               std::invalid_argument);
  EXPECT_THROW(run_trajectory(torus, 10, 2, {0, 10}, 1),
               std::invalid_argument);
}

TEST(Trajectory, ShapeMatchesRequest) {
  const Torus2D torus(16, 16);
  const auto r = run_trajectory(torus, 20, 3, {8, 16, 64}, 2);
  EXPECT_EQ(r.checkpoints, (std::vector<std::uint32_t>{8, 16, 64}));
  ASSERT_EQ(r.estimates.size(), 3u);
  for (const auto& row : r.estimates) {
    EXPECT_EQ(row.size(), 3u);
  }
  EXPECT_DOUBLE_EQ(r.true_density, 19.0 / 256.0);
}

TEST(Trajectory, FinalSnapshotMatchesFullRun) {
  // The running estimate at the last checkpoint is exactly c/t of a
  // full run — verify against run_density_walk via a sanity property:
  // values must be multiples of 1/t and non-negative.
  const Torus2D torus(16, 16);
  constexpr std::uint32_t kRounds = 50;
  const auto r = run_trajectory(torus, 20, 20, {kRounds}, 3);
  for (const auto& row : r.estimates) {
    const double scaled = row[0] * kRounds;
    EXPECT_NEAR(scaled, std::round(scaled), 1e-9);
    EXPECT_GE(row[0], 0.0);
  }
}

TEST(Trajectory, ErrorShrinksAlongTheRun) {
  // Anytime property: pooled absolute error at the late checkpoint is
  // smaller than at the early one.
  const Torus2D torus(48, 48);
  constexpr std::uint32_t kAgents = 231;  // d ~ 0.1
  stats::Accumulator early, late;
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    const auto r =
        run_trajectory(torus, kAgents, kAgents, {32, 2048}, 100 + trial);
    for (std::uint32_t a = 0; a < kAgents; ++a) {
      early.add(std::fabs(r.estimates[a][0] - r.true_density));
      late.add(std::fabs(r.estimates[a][1] - r.true_density));
    }
  }
  EXPECT_LT(late.mean(), 0.5 * early.mean());
}

TEST(Trajectory, DeterministicInSeed) {
  const Torus2D torus(16, 16);
  const auto a = run_trajectory(torus, 12, 4, {5, 20}, 9);
  const auto b = run_trajectory(torus, 12, 4, {5, 20}, 9);
  EXPECT_EQ(a.estimates, b.estimates);
}

TEST(Trajectory, ShardedIsThreadCountInvariant) {
  // 40 agents in 8-agent shards: five shards per round, so four
  // threads really interleave the observer hooks.
  const Torus2D torus(16, 16);
  const auto run = [&](unsigned threads) {
    return run_trajectory(torus, 40, 6, {4, 16, 40}, 21, /*lazy=*/0.25,
                          ShardExec{.threads = threads, .shard_size = 8});
  };
  const TrajectoryResult one = run(1);
  EXPECT_EQ(one.estimates, run(4).estimates);
  EXPECT_NE(one.estimates,
            run_trajectory(torus, 40, 6, {4, 16, 40}, 21, /*lazy=*/0.0,
                           ShardExec{.threads = 1, .shard_size = 8})
                .estimates)
      << "the lazy knob must reach the walk";
}

}  // namespace
}  // namespace antdense::sim
