#include "swarm/dispersion.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "graph/torus2d.hpp"
#include "util/hash.hpp"

namespace antdense::swarm {
namespace {

using graph::Torus2D;

DispersionConfig basic_config() {
  DispersionConfig cfg;
  cfg.num_agents = 100;
  cfg.epochs = 6;
  cfg.rounds_per_epoch = 60;
  cfg.density_threshold = 0.05;
  cfg.initial_patch_side = 8;
  return cfg;
}

TEST(Dispersion, Validation) {
  const Torus2D torus(64, 64);
  DispersionConfig cfg = basic_config();
  cfg.num_agents = 1;
  EXPECT_THROW(run_dispersion(torus, cfg, 1), std::invalid_argument);
  cfg = basic_config();
  cfg.epochs = 0;
  EXPECT_THROW(run_dispersion(torus, cfg, 1), std::invalid_argument);
  cfg = basic_config();
  cfg.initial_patch_side = 100;  // larger than torus
  EXPECT_THROW(run_dispersion(torus, cfg, 1), std::invalid_argument);
}

TEST(Dispersion, ProducesOneStatPerEpoch) {
  const Torus2D torus(64, 64);
  const DispersionResult r = run_dispersion(torus, basic_config(), 2);
  EXPECT_EQ(r.epochs.size(), 6u);
}

TEST(Dispersion, SpreadImprovesFromClusteredStart) {
  const Torus2D torus(64, 64);
  const DispersionResult r = run_dispersion(torus, basic_config(), 3);
  // Starting packed in an 8x8 patch, the final spread ratio should be
  // clearly better (larger) than the first epoch's.
  EXPECT_GT(r.epochs.back().spread_ratio, r.epochs.front().spread_ratio);
  // And the swarm should approach uniform spread (ratio near 1).
  EXPECT_GT(r.epochs.back().spread_ratio, 0.6);
}

TEST(Dispersion, DensityEstimatesFallAsSwarmSpreads) {
  const Torus2D torus(64, 64);
  const DispersionResult r = run_dispersion(torus, basic_config(), 4);
  EXPECT_LT(r.epochs.back().mean_density_estimate,
            r.epochs.front().mean_density_estimate);
}

TEST(Dispersion, FractionsAreProbabilities) {
  const Torus2D torus(64, 64);
  const DispersionResult r = run_dispersion(torus, basic_config(), 5);
  for (const auto& epoch : r.epochs) {
    EXPECT_GE(epoch.fraction_overcrowded, 0.0);
    EXPECT_LE(epoch.fraction_overcrowded, 1.0);
    EXPECT_GE(epoch.spread_ratio, 0.0);
  }
}

// Pins the one generator (derive_seed(seed, 0xD15C)) that draws the
// clustered placement, every epoch's single and double steps and each
// epoch's spread sample, through every epoch's statistics.
TEST(Dispersion, OutputsArePinned) {
  std::string bytes;
  const auto row = [&](const Torus2D& torus, const DispersionConfig& cfg,
                       std::uint64_t seed) {
    for (const auto& epoch : run_dispersion(torus, cfg, seed).epochs) {
      for (const double v : {epoch.mean_density_estimate,
                             epoch.fraction_overcrowded,
                             epoch.spread_ratio}) {
        const auto bits = std::bit_cast<std::uint64_t>(v);
        bytes.append(reinterpret_cast<const char*>(&bits), sizeof bits);
      }
    }
  };
  row(Torus2D(64, 64), basic_config(), 1);
  row(Torus2D(64, 64), basic_config(), 7);
  DispersionConfig dense = basic_config();
  dense.num_agents = 300;
  dense.epochs = 4;
  dense.initial_patch_side = 4;
  row(Torus2D(48, 32), dense, 99);
  EXPECT_EQ(util::hex64(util::fnv1a64(bytes)), "3449d84bfab697bc");
}

}  // namespace
}  // namespace antdense::swarm
