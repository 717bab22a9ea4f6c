// Implicit Erdős–Rényi G(n, p) — every unordered pair {u, v} is an edge
// independently with probability p, decided by comparing the pair's
// recomputable hash word implicit_hash::gnp_edge_word(seed, min, max)
// against a fixed 64-bit threshold.  Both endpoints recompute the same
// word, so the graph is symmetric by construction, and nothing is ever
// stored: the topology is O(1) memory at any n.
//
// The realized edge probability is threshold / 2^64 with threshold =
// round-toward-zero of p * 2^64 — a quantization of p below one part in
// 2^64, far under any statistical resolution.  The threshold is the
// product of one IEEE double ldexp/multiply at construction, so
// adjacency is bit-stable across platforms (pinned by
// tests/test_implicit_golden.cpp).
//
// Honest complexity note: unlike rgg2d there is no spatial structure to
// exploit, so neighbor enumeration scans all n-1 candidate pairs —
// queries are O(n), not O(degree).  G(n, p) is therefore the
// exact-in-distribution reference family for small and moderate n
// (differential tests, campaign sweeps), not the massive-scale one;
// rgg2d fills that role.
//
// Degree is Binomial(n-1, p): degree() reports the nominal mean for the
// Topology concept, degree_of(u) the exact value.  Isolated nodes
// self-loop so the walk stays total.
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

class Gnp {
 public:
  using node_type = std::uint64_t;

  Gnp(std::uint64_t num_nodes, double p, std::uint64_t seed)
      : n_(num_nodes), p_(p), seed_(seed) {
    ANTDENSE_CHECK(num_nodes >= 2, "gnp requires at least 2 nodes");
    ANTDENSE_CHECK(num_nodes <= (std::uint64_t{1} << 32),
                   "gnp supports at most 2^32 nodes");
    ANTDENSE_CHECK(p > 0.0 && p <= 1.0, "gnp p must be in (0, 1]");
    // Quantize p to a 64-bit acceptance threshold: edge iff word <
    // threshold.  p == 1 saturates (every word is below 2^64).
    all_edges_ = p >= 1.0;
    threshold_ = all_edges_
                     ? ~std::uint64_t{0}
                     : static_cast<std::uint64_t>(std::ldexp(p, 64));
  }

  std::uint64_t num_nodes() const { return n_; }
  /// Nominal (mean) degree p * (n - 1); degree_of(u) is exact.
  std::uint64_t degree() const {
    const auto nominal = static_cast<std::uint64_t>(
        std::llround(p_ * static_cast<double>(n_ - 1)));
    return nominal < 1 ? 1 : (nominal > n_ - 1 ? n_ - 1 : nominal);
  }
  double probability() const { return p_; }
  std::uint64_t seed() const { return seed_; }
  std::uint64_t threshold() const { return threshold_; }

  /// Exact pairwise adjacency test: one hash word, one compare.
  bool connected(node_type u, node_type v) const {
    if (u == v) {
      return false;
    }
    if (all_edges_) {
      return true;
    }
    const node_type a = u < v ? u : v;
    const node_type b = u < v ? v : u;
    return implicit_hash::gnp_edge_word(seed_, a, b) < threshold_;
  }

  /// Exact degree of u — O(n) candidate scan (see header note).
  std::uint64_t degree_of(node_type u) const {
    std::uint64_t count = 0;
    for_each_neighbor(u, [&count](node_type) { ++count; });
    return count;
  }

  template <rng::BitGenerator64 G>
  node_type random_node(G& gen) const {
    return rng::uniform_below(gen, n_);
  }

  /// Uniform over N(u): one count pass, one uniform draw, one selection
  /// pass.  Isolated nodes self-loop.
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

  /// Enumerates N(u) in ascending node order.
  template <typename Fn>
  void for_each_neighbor(node_type u, Fn&& fn) const {
    for (node_type v = 0; v < n_; ++v) {
      if (v != u && connected(u, v)) {
        fn(v);
      }
    }
  }

  std::string name() const {
    return "gnp(n=" + std::to_string(n_) +
           ",p=" + util::format_shortest(p_) + ")";
  }

 private:
  std::uint64_t n_;
  double p_;
  std::uint64_t seed_;
  std::uint64_t threshold_ = 0;
  bool all_edges_ = false;
};

static_assert(Topology<Gnp>);

}  // namespace antdense::graph
