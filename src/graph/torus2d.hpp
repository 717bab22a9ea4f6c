// The two-dimensional torus — the paper's primary model (Section 2).
//
// Nodes are (x, y) coordinates with 0 <= x < width, 0 <= y < height,
// packed into a single uint64 (x in the low 32 bits).  A random-walk step
// moves to one of the four axis neighbors chosen uniformly; coordinates
// wrap around.  The paper uses a square sqrt(A) x sqrt(A) torus; this
// class supports rectangles, and square(side) is the paper's case.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "graph/topology.hpp"
#include "rng/random.hpp"
#include "util/check.hpp"

namespace antdense::graph {

class Torus2D {
 public:
  using node_type = std::uint64_t;  // packed (y << 32) | x

  Torus2D(std::uint32_t width, std::uint32_t height)
      : width_(width), height_(height) {
    ANTDENSE_CHECK(width >= 2 && height >= 2,
                   "torus dimensions must be at least 2x2");
  }

  static Torus2D square(std::uint32_t side) { return Torus2D(side, side); }

  std::uint64_t num_nodes() const {
    return static_cast<std::uint64_t>(width_) * height_;
  }
  std::uint64_t degree() const { return 4; }
  std::uint32_t width() const { return width_; }
  std::uint32_t height() const { return height_; }

  static node_type pack(std::uint32_t x, std::uint32_t y) {
    return (static_cast<std::uint64_t>(y) << 32) | x;
  }
  static std::uint32_t x_of(node_type u) {
    return static_cast<std::uint32_t>(u & 0xFFFFFFFFULL);
  }
  static std::uint32_t y_of(node_type u) {
    return static_cast<std::uint32_t>(u >> 32);
  }

  node_type make_node(std::uint32_t x, std::uint32_t y) const {
    ANTDENSE_CHECK(x < width_ && y < height_, "coordinates out of range");
    return pack(x, y);
  }

  template <rng::BitGenerator64 G>
  node_type random_node(G& gen) const {
    const auto x =
        static_cast<std::uint32_t>(rng::uniform_below(gen, width_));
    const auto y =
        static_cast<std::uint32_t>(rng::uniform_below(gen, height_));
    return pack(x, y);
  }

  /// One step of the paper's random walk: uniform over {+x, -x, +y, -y}.
  template <rng::BitGenerator64 G>
  node_type random_neighbor(node_type u, G& gen) const {
    const std::uint64_t dir = gen() >> 62;  // two uniform bits
    return step(u, static_cast<int>(dir));
  }

  /// Batched stepping: one neighbor per input node, same generator
  /// stream as sequential random_neighbor calls.  Draws a block of raw
  /// words first, then applies a branchless wrap, so the position update
  /// runs as a tight select-based loop instead of a per-agent switch.
  /// `out[i]` replaces `in[i]`; the spans may alias elementwise.
  template <rng::BitGenerator64 G>
  void random_neighbors(std::span<const node_type> in,
                        std::span<node_type> out, G& gen) const {
    ANTDENSE_CHECK(in.size() == out.size(),
                   "bulk neighbor sampling needs equal-sized spans");
    detail::blocked_random_neighbors(
        in, out, gen, [this](node_type u, std::uint64_t word) {
          return step_branchless(u, static_cast<std::uint32_t>(word >> 62));
        });
  }

  /// Deterministic step, dir in {0:+x, 1:-x, 2:+y, 3:-y}.  Exposed for
  /// the displacement experiments and for the independent-sampling
  /// baseline (Algorithm 4), which walks a fixed pattern.
  node_type step(node_type u, int dir) const {
    std::uint32_t x = x_of(u);
    std::uint32_t y = y_of(u);
    switch (dir & 3) {
      case 0:
        x = (x + 1 == width_) ? 0 : x + 1;
        break;
      case 1:
        x = (x == 0) ? width_ - 1 : x - 1;
        break;
      case 2:
        y = (y + 1 == height_) ? 0 : y + 1;
        break;
      default:
        y = (y == 0) ? height_ - 1 : y - 1;
        break;
    }
    return pack(x, y);
  }

  std::uint64_t key(node_type u) const {
    return static_cast<std::uint64_t>(y_of(u)) * width_ + x_of(u);
  }

  /// Torus (wrap-aware) L1 distance between nodes; used by tests and the
  /// swarm dispersion demo.
  std::uint64_t l1_distance(node_type a, node_type b) const;

  template <typename Fn>
  void for_each_neighbor(node_type u, Fn&& fn) const {
    for (int dir = 0; dir < 4; ++dir) {
      fn(step(u, dir));
    }
  }

  std::string name() const {
    return "torus2d(" + std::to_string(width_) + "x" +
           std::to_string(height_) + ")";
  }

 private:
  /// step() without the switch: adds width-1 / height-1 for the backward
  /// directions (≡ -1 mod size) and wraps with one conditional subtract,
  /// so the compiler can turn the bulk loop into compare-and-blend code.
  node_type step_branchless(node_type u, std::uint32_t dir) const {
    std::uint32_t x = x_of(u);
    std::uint32_t y = y_of(u);
    const std::uint32_t dx = dir == 0 ? 1u : (dir == 1 ? width_ - 1 : 0u);
    const std::uint32_t dy = dir == 2 ? 1u : (dir == 3 ? height_ - 1 : 0u);
    x += dx;
    x = x >= width_ ? x - width_ : x;
    y += dy;
    y = y >= height_ ? y - height_ : y;
    return pack(x, y);
  }

  std::uint32_t width_;
  std::uint32_t height_;
};

static_assert(Topology<Torus2D>);

}  // namespace antdense::graph
