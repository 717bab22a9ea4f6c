// Implicit 2-D random geometric graph — the massive-scale spatial
// substrate (ants/robots in continuous space; Hindes et al.'s
// stochastic-sensing swarms are exactly this regime).
//
// Nodes are points on the unit *torus* [0,1)^2, and u ~ v iff their
// wrap-aware Euclidean distance is at most `radius`.  Nothing is ever
// materialized: node u's position is recomputed on demand from
// implicit_hash::rgg2d_jitter_word(seed, u), so the topology costs O(1)
// memory at any n and a billion-node ScenarioSpec walks in O(agents)
// total (tests/test_implicit_memory.cpp pins the RSS bound).
//
// Point process: stratified one-point-per-cell placement.  The square is
// divided into side x side cells (side = ceil(sqrt(n))); node u sits in
// cell (u % side, u / side) at a hash-derived uniform jitter inside the
// cell (ids >= n in the final row are simply absent).  Stratified
// placement is what makes neighbor queries O(expected degree): a radius-
// r ball overlaps O((r*side+1)^2) cells and each cell holds at most one
// recomputable point.  The expected degree matches the i.i.d. RGG's
// pi*r^2*n exactly (each foreign cell's point is uniform in its cell, so
// inclusion probabilities integrate to the ball area) — the variance is
// slightly *below* binomial, which the degree-distribution tests
// account for.  For perfect-square n the process is exactly uniform;
// otherwise the trailing partial cell row thins the top band.
//
// All geometry is integer: positions are 32.32-style fixed point (cell
// index in the high bits, jitter in the low 32), distances compare in
// unsigned 128-bit, and the only floating-point step is the one IEEE
// double multiplication radius * world_width at construction — so
// neighborhoods are bit-stable across platforms and releases
// (tests/test_implicit_golden.cpp).
//
// Degree is *near*-uniform, not uniform: degree() reports the nominal
// expected degree for the Topology concept, degree_of(u) the exact
// value.  Isolated nodes (possible for tiny radius) self-loop, keeping
// the walk total.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "graph/implicit_hash.hpp"
#include "graph/topology.hpp"
#include "rng/random.hpp"
#include "util/check.hpp"
#include "util/format.hpp"

namespace antdense::graph {

class Rgg2D {
 public:
  using node_type = std::uint64_t;

  /// Fixed-point position on the torus, in units of 1/(side * 2^32) of
  /// the unit square per axis.
  struct Position {
    std::uint64_t x = 0;
    std::uint64_t y = 0;
  };

  Rgg2D(std::uint64_t num_nodes, double radius, std::uint64_t seed)
      : n_(num_nodes), radius_(radius), seed_(seed) {
    ANTDENSE_CHECK(num_nodes >= 2, "rgg2d requires at least 2 nodes");
    ANTDENSE_CHECK(num_nodes <= (std::uint64_t{1} << 32),
                   "rgg2d supports at most 2^32 nodes");
    ANTDENSE_CHECK(radius > 0.0 && radius < 1.0,
                   "rgg2d radius must be in (0, 1)");
    side_ = integer_sqrt_ceil(num_nodes);
    world_ = side_ << kCellBits;
    // The one floating-point step: one correctly-rounded IEEE double
    // multiplication (world_ <= 2^48 is exactly representable), so the
    // integer threshold is platform-stable.
    threshold_ =
        static_cast<std::uint64_t>(radius * static_cast<double>(world_));
    threshold_sq_ = static_cast<unsigned __int128>(threshold_) * threshold_;
    reach_ = (threshold_ >> kCellBits) + 1;
  }

  std::uint64_t num_nodes() const { return n_; }
  /// Nominal (expected) degree pi * r^2 * n — the substrate is
  /// near-regular, not regular; degree_of(u) is the exact per-node value.
  std::uint64_t degree() const {
    const double expected =
        3.14159265358979323846 * radius_ * radius_ * static_cast<double>(n_);
    const auto nominal = static_cast<std::uint64_t>(std::llround(expected));
    return nominal < 1 ? 1 : (nominal > n_ - 1 ? n_ - 1 : nominal);
  }
  double radius() const { return radius_; }
  std::uint64_t seed() const { return seed_; }
  std::uint64_t side() const { return side_; }
  /// Cells within Chebyshev distance reach() can hold neighbors.
  std::uint64_t reach() const { return reach_; }

  /// Node u's recomputed position: cell origin plus hash-derived jitter.
  Position position(node_type u) const {
    const std::uint64_t w = implicit_hash::rgg2d_jitter_word(seed_, u);
    return Position{((u % side_) << kCellBits) |
                        (w & 0xFFFFFFFFULL),
                    ((u / side_) << kCellBits) | (w >> 32)};
  }

  /// Wrap-aware Euclidean adjacency test (exact, integer-only).
  bool connected(node_type u, node_type v) const {
    if (u == v) {
      return false;
    }
    return within_radius(position(u), position(v));
  }

  /// Exact degree of u, by scanning the O(reach^2) candidate cells.
  std::uint64_t degree_of(node_type u) const {
    std::uint64_t count = 0;
    for_each_neighbor(u, [&count](node_type) { ++count; });
    return count;
  }

  template <rng::BitGenerator64 G>
  node_type random_node(G& gen) const {
    return rng::uniform_below(gen, n_);
  }

  /// Uniform over N(u), recomputed on the fly: one count pass, one
  /// uniform draw, one selection pass.  Isolated nodes self-loop (the
  /// walk must stay total; for radii above the connectivity threshold
  /// isolation is vanishingly rare).
  template <rng::BitGenerator64 G>
  node_type random_neighbor(node_type u, G& gen) const {
    const std::uint64_t deg = degree_of(u);
    if (deg == 0) {
      return u;
    }
    const std::uint64_t pick = rng::uniform_below(gen, deg);
    std::uint64_t index = 0;
    node_type chosen = u;
    for_each_neighbor(u, [&](node_type v) {
      if (index == pick) {
        chosen = v;
      }
      ++index;
    });
    return chosen;
  }

  std::uint64_t key(node_type u) const { return u; }

  /// Enumerates N(u) in a fixed deterministic order (cell-major over the
  /// candidate window).  O(reach^2) candidate cells = O(expected degree)
  /// work.
  template <typename Fn>
  void for_each_neighbor(node_type u, Fn&& fn) const {
    const Position pu = position(u);
    const std::uint64_t cx = u % side_;
    const std::uint64_t cy = u / side_;
    const auto visit = [&](std::uint64_t ccx, std::uint64_t ccy) {
      const node_type v = ccy * side_ + ccx;
      if (v >= n_ || v == u) {
        return;
      }
      if (within_radius(pu, position(v))) {
        fn(v);
      }
    };
    if (2 * reach_ + 1 >= side_) {
      // The window wraps onto itself: scan every cell exactly once.
      for (std::uint64_t y = 0; y < side_; ++y) {
        for (std::uint64_t x = 0; x < side_; ++x) {
          visit(x, y);
        }
      }
      return;
    }
    for (std::uint64_t dy = 0; dy <= 2 * reach_; ++dy) {
      const std::uint64_t ccy = (cy + side_ - reach_ + dy) % side_;
      for (std::uint64_t dx = 0; dx <= 2 * reach_; ++dx) {
        visit((cx + side_ - reach_ + dx) % side_, ccy);
      }
    }
  }

  std::string name() const {
    return "rgg2d(n=" + std::to_string(n_) +
           ",r=" + util::format_shortest(radius_) + ")";
  }

 private:
  static constexpr std::uint32_t kCellBits = 32;

  static std::uint64_t integer_sqrt_ceil(std::uint64_t n) {
    auto s = static_cast<std::uint64_t>(
        std::ceil(std::sqrt(static_cast<double>(n))));
    // Correct any floating-point slop: smallest s with s*s >= n.
    while (s > 0 && (s - 1) * (s - 1) >= n) {
      --s;
    }
    while (s * s < n) {
      ++s;
    }
    return s;
  }

  std::uint64_t axis_distance(std::uint64_t a, std::uint64_t b) const {
    const std::uint64_t d = a > b ? a - b : b - a;
    return d <= world_ - d ? d : world_ - d;
  }

  bool within_radius(const Position& a, const Position& b) const {
    const std::uint64_t dx = axis_distance(a.x, b.x);
    const std::uint64_t dy = axis_distance(a.y, b.y);
    const unsigned __int128 dist_sq =
        static_cast<unsigned __int128>(dx) * dx +
        static_cast<unsigned __int128>(dy) * dy;
    return dist_sq <= threshold_sq_;
  }

  std::uint64_t n_;
  double radius_;
  std::uint64_t seed_;
  std::uint64_t side_ = 0;       // cells per axis
  std::uint64_t world_ = 0;      // torus width in fixed-point units
  std::uint64_t threshold_ = 0;  // radius in fixed-point units
  unsigned __int128 threshold_sq_ = 0;
  std::uint64_t reach_ = 0;      // candidate-cell Chebyshev radius
};

static_assert(Topology<Rgg2D>);

}  // namespace antdense::graph
