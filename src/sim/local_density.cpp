#include "sim/local_density.hpp"

#include <cstdlib>

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

}  // namespace antdense::sim
