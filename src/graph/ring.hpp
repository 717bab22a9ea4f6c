// The ring (one-dimensional torus) of Section 4.2 — the paper's example
// of *weak* local mixing: re-collision probability decays only as
// 1/sqrt(m+1), so encounter-rate estimation converges like t^(-1/4)
// (Theorem 21) instead of ~t^(-1/2).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "graph/topology.hpp"
#include "rng/random.hpp"
#include "util/check.hpp"

namespace antdense::graph {

class Ring {
 public:
  using node_type = std::uint64_t;

  explicit Ring(std::uint64_t num_nodes) : size_(num_nodes) {
    ANTDENSE_CHECK(num_nodes >= 3, "ring requires at least 3 nodes");
  }

  std::uint64_t num_nodes() const { return size_; }
  std::uint64_t degree() const { return 2; }

  template <rng::BitGenerator64 G>
  node_type random_node(G& gen) const {
    return rng::uniform_below(gen, size_);
  }

  template <rng::BitGenerator64 G>
  node_type random_neighbor(node_type u, G& gen) const {
    const bool forward = (gen() >> 63) != 0;
    return forward ? (u + 1 == size_ ? 0 : u + 1)
                   : (u == 0 ? size_ - 1 : u - 1);
  }

  /// Batched stepping: same generator stream as sequential
  /// random_neighbor calls, with the wrap done as a branchless add of
  /// +1 or size-1 (≡ -1 mod size) plus one conditional subtract.
  /// `out[i]` replaces `in[i]`; the spans may alias elementwise.
  template <rng::BitGenerator64 G>
  void random_neighbors(std::span<const node_type> in,
                        std::span<node_type> out, G& gen) const {
    ANTDENSE_CHECK(in.size() == out.size(),
                   "bulk neighbor sampling needs equal-sized spans");
    detail::blocked_random_neighbors(
        in, out, gen, [this](node_type u, std::uint64_t word) {
          const std::uint64_t delta = (word >> 63) != 0 ? 1 : size_ - 1;
          const node_type v = u + delta;
          return v >= size_ ? v - size_ : v;
        });
  }

  std::uint64_t key(node_type u) const { return u; }

  /// Wrap-aware distance, for tests.
  std::uint64_t distance(node_type a, node_type b) const {
    const std::uint64_t d = a > b ? a - b : b - a;
    return d < size_ - d ? d : size_ - d;
  }

  template <typename Fn>
  void for_each_neighbor(node_type u, Fn&& fn) const {
    fn(u + 1 == size_ ? 0 : u + 1);
    fn(u == 0 ? size_ - 1 : u - 1);
  }

  std::string name() const { return "ring(" + std::to_string(size_) + ")"; }

 private:
  std::uint64_t size_;
};

static_assert(Topology<Ring>);

}  // namespace antdense::graph
