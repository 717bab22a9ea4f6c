// Implicit Barabási–Albert preferential-attachment graph, via the
// Batagelj–Brandes linear construction made storage-free.
//
// Batagelj & Brandes (2005) build BA(n, d) by writing the endpoint array
// M[0..2m): edge j has source M[2j] = j / d, and target M[2j+1] = M[r]
// for r uniform in [0, 2j+1).  Landing on an even slot copies a node id
// directly; landing on an odd slot copies an earlier *target*, which is
// exactly what makes attachment proportional to current degree.  We
// never store M: edge j's draw comes from its own private SplitMix64
// stream seeded by implicit_hash::ba_attach_seed(seed, j), so any M[r]
// can be recomputed on demand by chasing the odd-slot chain — a
// geometric chain with expected O(1) length.  The construction is
// all-integer (Lemire rejection on 64-bit words), hence bit-stable
// across platforms (pinned by tests/test_implicit_golden.cpp).
//
// Faithful BA semantics retained, quirks included: the graph is a
// multigraph, edge 0 is a self-loop on node 0 (r is forced to 0), and a
// self-loop contributes the node twice to its own neighbor multiset —
// the same convention as graph::Graph::from_edges, so differential
// tests compare like with like.  The degree distribution has the
// classic power-law tail with exponent ~3.
//
// Honest complexity note: out-neighbors (the d attachments of u) cost
// O(d) chains, but in-neighbors require scanning all m = n*d edge
// targets, so neighbor enumeration is O(m).  Like gnp, ba is an
// exact-in-distribution family for small and moderate n; rgg2d is the
// massive-scale one.
//
// Degree is heavy-tailed: degree() reports the nominal mean 2d for the
// Topology concept, degree_of(u) the exact value.
#pragma once

#include <cstdint>
#include <string>

#include "graph/implicit_hash.hpp"
#include "graph/topology.hpp"
#include "rng/random.hpp"
#include "rng/splitmix64.hpp"
#include "util/check.hpp"

namespace antdense::graph {

class Ba {
 public:
  using node_type = std::uint64_t;

  Ba(std::uint64_t num_nodes, std::uint64_t attach_degree, std::uint64_t seed)
      : n_(num_nodes), d_(attach_degree), seed_(seed) {
    ANTDENSE_CHECK(num_nodes >= 2, "ba requires at least 2 nodes");
    ANTDENSE_CHECK(attach_degree >= 1, "ba attachment degree must be >= 1");
    ANTDENSE_CHECK(attach_degree < num_nodes,
                   "ba attachment degree must be < n");
    ANTDENSE_CHECK(num_nodes <= (std::uint64_t{1} << 32) &&
                       attach_degree <= (std::uint64_t{1} << 16),
                   "ba supports n <= 2^32 and d <= 2^16");
    m_ = n_ * d_;
  }

  std::uint64_t num_nodes() const { return n_; }
  /// Nominal (mean) degree 2d — the distribution is a power law;
  /// degree_of(u) is the exact value.
  std::uint64_t degree() const {
    const std::uint64_t nominal = 2 * d_;
    return nominal > n_ - 1 ? n_ - 1 : nominal;
  }
  std::uint64_t attach_degree() const { return d_; }
  std::uint64_t num_edges() const { return m_; }
  std::uint64_t seed() const { return seed_; }

  /// Source endpoint of edge j (the attaching node).
  node_type source_of(std::uint64_t edge) const { return edge / d_; }

  /// Target endpoint of edge j, recomputed by chasing the Batagelj–
  /// Brandes odd-slot chain (expected O(1) steps).
  node_type target_of(std::uint64_t edge) const {
    std::uint64_t j = edge;
    while (true) {
      rng::SplitMix64 gen(implicit_hash::ba_attach_seed(seed_, j));
      const std::uint64_t r = rng::uniform_below(gen, 2 * j + 1);
      if (r % 2 == 0) {
        return (r / 2) / d_;  // even slot holds edge (r/2)'s source
      }
      j = (r - 1) / 2;  // odd slot holds edge ((r-1)/2)'s target
    }
  }

  /// Exact degree of u (multi-edges counted with multiplicity, a
  /// self-loop counted twice) — O(m) target scan (see header note).
  std::uint64_t degree_of(node_type u) const {
    std::uint64_t count = 0;
    for_each_neighbor(u, [&count](node_type) { ++count; });
    return count;
  }

  template <rng::BitGenerator64 G>
  node_type random_node(G& gen) const {
    return rng::uniform_below(gen, n_);
  }

  /// Uniform over u's neighbor *multiset*: one count pass, one uniform
  /// draw, one selection pass.  Every node has degree >= d >= 1, so no
  /// self-loop fallback is needed.
  template <rng::BitGenerator64 G>
  node_type random_neighbor(node_type u, G& gen) const {
    const std::uint64_t deg = degree_of(u);
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

  /// Enumerates u's neighbor multiset in a fixed deterministic order:
  /// first the targets of u's own d edges (ascending edge id), then the
  /// sources of every edge targeting u (ascending edge id).
  template <typename Fn>
  void for_each_neighbor(node_type u, Fn&& fn) const {
    for (std::uint64_t j = u * d_; j < (u + 1) * d_; ++j) {
      fn(target_of(j));
    }
    for (std::uint64_t j = 0; j < m_; ++j) {
      if (target_of(j) == u) {
        fn(source_of(j));
      }
    }
  }

  std::string name() const {
    return "ba(n=" + std::to_string(n_) + ",d=" + std::to_string(d_) + ")";
  }

 private:
  std::uint64_t n_;
  std::uint64_t d_;
  std::uint64_t seed_;
  std::uint64_t m_ = 0;  // total edges n * d
};

static_assert(Topology<Ba>);

}  // namespace antdense::graph
