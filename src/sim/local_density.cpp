#include "sim/local_density.hpp"

#include <cstdlib>

#include "rng/splitmix64.hpp"
#include "sim/walk_engine.hpp"

namespace antdense::sim {

using graph::Torus2D;

std::uint64_t l1_ball_size(const Torus2D& torus, std::uint32_t radius) {
  ANTDENSE_CHECK(radius >= 1, "radius must be >= 1");
  // Require the ball not to wrap onto itself so the count is the plane
  // formula 2r^2 + 2r + 1 (all callers use neighborhood-scale radii).
  ANTDENSE_CHECK(2 * radius < torus.width() && 2 * radius < torus.height(),
                 "ball diameter must be smaller than both torus sides");
  const std::uint64_t r = radius;
  return 2 * r * r + 2 * r + 1;
}

std::uint64_t agents_within(const Torus2D& torus,
                            std::span<const Torus2D::node_type> positions,
                            Torus2D::node_type center, std::uint32_t radius,
                            bool exclude_one_at_center) {
  std::uint64_t count = 0;
  bool excluded = false;
  for (Torus2D::node_type p : positions) {
    if (torus.l1_distance(p, center) <= radius) {
      if (exclude_one_at_center && !excluded &&
          torus.key(p) == torus.key(center)) {
        excluded = true;
        continue;
      }
      ++count;
    }
  }
  return count;
}

double local_density(const Torus2D& torus,
                     std::span<const Torus2D::node_type> positions,
                     Torus2D::node_type center, std::uint32_t radius,
                     bool exclude_one_at_center) {
  const std::uint64_t ball = l1_ball_size(torus, radius);
  const std::uint64_t agents = agents_within(torus, positions, center,
                                             radius, exclude_one_at_center);
  return static_cast<double>(agents) / static_cast<double>(ball);
}

std::vector<double> per_agent_local_density(
    const Torus2D& torus, std::span<const Torus2D::node_type> positions,
    std::uint32_t radius) {
  std::vector<double> out;
  out.reserve(positions.size());
  for (Torus2D::node_type p : positions) {
    out.push_back(
        local_density(torus, positions, p, radius,
                      /*exclude_one_at_center=*/true));
  }
  return out;
}

LocalDensityObserver::LocalDensityObserver(
    const graph::Torus2D& torus, std::uint32_t radius,
    std::vector<std::uint32_t> checkpoints)
    : torus_(&torus), radius_(radius), checkpoints_(std::move(checkpoints)) {
  // Reuses l1_ball_size's radius preconditions (>= 1, no self-wrap).
  l1_ball_size(torus, radius);
  detail::validate_checkpoints(checkpoints_);
  densities_.reserve(checkpoints_.size());
}

void LocalDensityObserver::after_round(
    const RoundView& v, std::span<const graph::Torus2D::node_type> positions) {
  if (next_checkpoint_ >= checkpoints_.size() ||
      v.round != checkpoints_[next_checkpoint_]) {
    return;
  }
  densities_.push_back(per_agent_local_density(*torus_, positions, radius_));
  ++next_checkpoint_;
}

LocalDensityProfile run_local_density_profile(
    const Torus2D& torus, std::uint32_t num_agents, std::uint32_t radius,
    const std::vector<std::uint32_t>& checkpoints, std::uint64_t seed,
    const std::vector<Torus2D::node_type>* initial_positions) {
  ANTDENSE_CHECK(num_agents >= 2, "need at least two agents");
  LocalDensityObserver obs(torus, radius, checkpoints);

  WalkConfig cfg;
  cfg.num_agents = num_agents;
  cfg.rounds = checkpoints.back();
  run_walk(torus, cfg, rng::derive_seed(seed, 0x10Du), SingleExec{},
           initial_positions, obs);

  LocalDensityProfile profile;
  profile.checkpoints = obs.checkpoints();
  profile.densities = obs.take_densities();
  profile.global_density = static_cast<double>(num_agents - 1) /
                           static_cast<double>(torus.num_nodes());
  return profile;
}

}  // namespace antdense::sim
