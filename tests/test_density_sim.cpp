#include "sim/density_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/complete.hpp"
#include "graph/torus2d.hpp"
#include "stats/accumulator.hpp"

namespace antdense::sim {
namespace {

using graph::CompleteGraph;
using graph::Torus2D;

TEST(DensityConfig, ValidatesFields) {
  DensityConfig cfg;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);  // zero agents
  cfg.num_agents = 2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);  // zero rounds
  cfg.rounds = 1;
  EXPECT_NO_THROW(cfg.validate());
  cfg.lazy_probability = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.lazy_probability = 0.0;
  cfg.detection_miss_probability = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(DensityConfig, ValidatesProbabilityEdges) {
  DensityConfig cfg;
  cfg.num_agents = 2;
  cfg.rounds = 1;
  // Laziness of exactly 1.0 (never moves) is rejected; just below is ok.
  cfg.lazy_probability = std::nextafter(1.0, 0.0);
  EXPECT_NO_THROW(cfg.validate());
  cfg.lazy_probability = -0.01;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.lazy_probability = 0.0;
  // Miss/spurious may be exactly 0 or 1, nothing outside.
  cfg.detection_miss_probability = 1.0;
  EXPECT_NO_THROW(cfg.validate());
  cfg.detection_miss_probability = -0.2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.detection_miss_probability = 0.0;
  cfg.spurious_collision_probability = 1.0;
  EXPECT_NO_THROW(cfg.validate());
  cfg.spurious_collision_probability = 1.0 + 1e-9;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.spurious_collision_probability = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(RunDensityWalk, InvalidConfigRejectedBeforeRunning) {
  const Torus2D torus(8, 8);
  DensityConfig cfg;  // zero agents AND zero rounds
  EXPECT_THROW(run_density_walk(torus, cfg, 1), std::invalid_argument);
  cfg.num_agents = 4;
  EXPECT_THROW(run_density_walk(torus, cfg, 1), std::invalid_argument);
  cfg.rounds = 2;
  cfg.lazy_probability = 1.0;
  EXPECT_THROW(run_density_walk(torus, cfg, 1), std::invalid_argument);
}

TEST(RunDensityWalk, DeterministicInSeed) {
  const Torus2D torus(16, 16);
  DensityConfig cfg;
  cfg.num_agents = 20;
  cfg.rounds = 50;
  const DensityResult a = run_density_walk(torus, cfg, 77);
  const DensityResult b = run_density_walk(torus, cfg, 77);
  EXPECT_EQ(a.collision_counts, b.collision_counts);
  const DensityResult c = run_density_walk(torus, cfg, 78);
  EXPECT_NE(a.collision_counts, c.collision_counts);
}

TEST(RunDensityWalk, TrueDensityDefinition) {
  const Torus2D torus(10, 10);
  DensityConfig cfg;
  cfg.num_agents = 11;
  cfg.rounds = 5;
  const DensityResult r = run_density_walk(torus, cfg, 1);
  EXPECT_DOUBLE_EQ(r.true_density(), 10.0 / 100.0);  // (N-1)/A
}

TEST(RunDensityWalk, CollisionCountsSymmetricInTotal) {
  // Every collision is counted by both parties: the sum over agents of
  // collision counts must be even in every run where occupancies are
  // pairs... more robustly, the total equals sum over rounds and nodes
  // of occ*(occ-1), which is always even.
  const Torus2D torus(8, 8);
  DensityConfig cfg;
  cfg.num_agents = 12;
  cfg.rounds = 64;
  const DensityResult r = run_density_walk(torus, cfg, 5);
  std::uint64_t total = 0;
  for (std::uint64_t c : r.collision_counts) {
    total += c;
  }
  EXPECT_EQ(total % 2, 0u);
}

TEST(RunDensityWalk, UnbiasedOnTorus) {
  // Lemma 2 / Corollary 3: E[d~] = d.  Average many runs.
  const Torus2D torus(12, 12);
  DensityConfig cfg;
  cfg.num_agents = 10;
  cfg.rounds = 40;
  const double d = 9.0 / 144.0;
  stats::Accumulator acc;
  for (std::uint64_t trial = 0; trial < 400; ++trial) {
    const DensityResult r = run_density_walk(torus, cfg, 1000 + trial);
    for (double e : r.estimates()) {
      acc.add(e);
    }
  }
  EXPECT_NEAR(acc.mean(), d, 4.0 * acc.standard_error() + 1e-12)
      << "mean " << acc.mean() << " vs d " << d;
}

TEST(RunDensityWalk, UnbiasedOnCompleteGraph) {
  const CompleteGraph g(64);
  DensityConfig cfg;
  cfg.num_agents = 8;
  cfg.rounds = 64;
  const double d = 7.0 / 64.0;
  stats::Accumulator acc;
  for (std::uint64_t trial = 0; trial < 300; ++trial) {
    const DensityResult r = run_density_walk(g, cfg, 2000 + trial);
    for (double e : r.estimates()) {
      acc.add(e);
    }
  }
  EXPECT_NEAR(acc.mean(), d, 4.0 * acc.standard_error() + 1e-12);
}

TEST(RunDensityWalk, CustomInitialPositionsRespected) {
  const Torus2D torus(8, 8);
  DensityConfig cfg;
  cfg.num_agents = 2;
  cfg.rounds = 1;
  // Two agents on the same node: after one synchronized step they collide
  // with probability 1/4; over many trials the empirical rate shows the
  // clustering (far from the uniform-placement rate 1/64).
  std::vector<Torus2D::node_type> start{Torus2D::pack(3, 3),
                                        Torus2D::pack(3, 3)};
  int collisions = 0;
  constexpr int kTrials = 8000;
  for (int trial = 0; trial < kTrials; ++trial) {
    const DensityResult r =
        run_density_walk(torus, cfg, 3000 + trial, {}, &start);
    collisions += r.collision_counts[0] > 0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(collisions) / kTrials, 0.25, 0.02);
}

TEST(RunDensityWalk, InitialPositionSizeMismatchThrows) {
  const Torus2D torus(8, 8);
  DensityConfig cfg;
  cfg.num_agents = 3;
  cfg.rounds = 1;
  std::vector<Torus2D::node_type> start{Torus2D::pack(0, 0)};
  EXPECT_THROW(run_density_walk(torus, cfg, 1, {}, &start),
               std::invalid_argument);
}

TEST(RunDensityWalk, FullMissDetectionZeroesCounts) {
  const Torus2D torus(4, 4);
  DensityConfig cfg;
  cfg.num_agents = 10;
  cfg.rounds = 32;
  cfg.detection_miss_probability = 1.0;
  const DensityResult r = run_density_walk(torus, cfg, 9);
  for (std::uint64_t c : r.collision_counts) {
    EXPECT_EQ(c, 0u);
  }
}

TEST(RunDensityWalk, SpuriousRateInflatesEstimate) {
  const Torus2D torus(32, 32);
  DensityConfig cfg;
  cfg.num_agents = 2;  // essentially no true collisions
  cfg.rounds = 200;
  cfg.spurious_collision_probability = 0.5;
  const DensityResult r = run_density_walk(torus, cfg, 10);
  // Expect ~0.5 spurious detections per round per agent.
  const double rate =
      static_cast<double>(r.collision_counts[0]) / cfg.rounds;
  EXPECT_NEAR(rate, 0.5, 0.15);
}

TEST(RunDensityWalk, LazyWalkStillUnbiased) {
  // Laziness does not break regularity: uniform stationary marginals
  // keep E[d~] = d.
  const Torus2D torus(10, 10);
  DensityConfig cfg;
  cfg.num_agents = 8;
  cfg.rounds = 50;
  cfg.lazy_probability = 0.3;
  stats::Accumulator acc;
  for (std::uint64_t trial = 0; trial < 400; ++trial) {
    const DensityResult r = run_density_walk(torus, cfg, 4000 + trial);
    for (double e : r.estimates()) {
      acc.add(e);
    }
  }
  EXPECT_NEAR(acc.mean(), 7.0 / 100.0, 4.0 * acc.standard_error() + 1e-12);
}

TEST(RunPropertyWalk, PropertySizeMismatchThrows) {
  const Torus2D torus(8, 8);
  DensityConfig cfg;
  cfg.num_agents = 5;
  cfg.rounds = 2;
  const std::vector<bool> too_few(4, true);
  EXPECT_THROW(run_property_walk(torus, cfg, too_few, 1),
               std::invalid_argument);
  const std::vector<bool> too_many(6, true);
  EXPECT_THROW(run_property_walk(torus, cfg, too_many, 1),
               std::invalid_argument);
  const std::vector<bool> empty;
  EXPECT_THROW(run_property_walk(torus, cfg, empty, 1),
               std::invalid_argument);
}

TEST(RunPropertyWalk, SplitsCountsByClass) {
  const Torus2D torus(8, 8);
  DensityConfig cfg;
  cfg.num_agents = 16;
  cfg.rounds = 100;
  std::vector<bool> has_property(16, false);
  for (int i = 0; i < 4; ++i) {
    has_property[i] = true;
  }
  const PropertyResult r = run_property_walk(torus, cfg, has_property, 21);
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_LE(r.property_counts[i], r.total_counts[i]) << "agent " << i;
  }
}

TEST(RunPropertyWalk, AllPropertyMeansCountsMatch) {
  const Torus2D torus(8, 8);
  DensityConfig cfg;
  cfg.num_agents = 10;
  cfg.rounds = 60;
  std::vector<bool> has_property(10, true);
  const PropertyResult r = run_property_walk(torus, cfg, has_property, 22);
  EXPECT_EQ(r.total_counts, r.property_counts);
}

TEST(RunPropertyWalk, NoPropertyMeansZeroPropertyCounts) {
  const Torus2D torus(8, 8);
  DensityConfig cfg;
  cfg.num_agents = 10;
  cfg.rounds = 60;
  std::vector<bool> has_property(10, false);
  const PropertyResult r = run_property_walk(torus, cfg, has_property, 23);
  for (std::uint64_t c : r.property_counts) {
    EXPECT_EQ(c, 0u);
  }
}

}  // namespace
}  // namespace antdense::sim
