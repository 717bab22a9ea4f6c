// Differential suite for the implicit generators: each family is
// materialized at small n into an explicit CSR reference (two
// independent code paths — per-node enumeration vs. whole-graph
// construction — must describe the same graph), then implicit sampling
// is checked against the reference for edge-set agreement, degree-
// sequence agreement, and neighbor-draw distribution (chi-squared
// against uniform-over-adjacency, which is exactly what the explicit
// reference samples).  Fixed seeds make these regression tests, not
// flaky statistics.
#include "materialize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "graph/ba.hpp"
#include "graph/explicit_topology.hpp"
#include "graph/gnp.hpp"
#include "graph/graph.hpp"
#include "graph/rgg2d.hpp"
#include "rng/xoshiro256pp.hpp"

namespace antdense::graph {
namespace {

/// Chi-squared statistic of `draws` uniform-over-multiset samples
/// against the adjacency slice of `g` at node u; fails the test when it
/// exceeds a generous df + 6 sqrt(2 df) band (fixed seed: regression).
template <typename Topo>
void expect_uniform_over_adjacency(const Topo& topo, const Graph& g,
                                   std::uint32_t u, rng::Xoshiro256pp& gen) {
  const auto slice = g.neighbors(u);
  ASSERT_GT(slice.size(), 0u);
  std::map<std::uint32_t, std::uint64_t> multiplicity;
  for (const std::uint32_t v : slice) {
    ++multiplicity[v];
  }
  const int draws = std::max<int>(4000, 300 * static_cast<int>(slice.size()));
  std::map<std::uint64_t, std::uint64_t> observed;
  for (int i = 0; i < draws; ++i) {
    ++observed[topo.random_neighbor(u, gen)];
  }
  // Every draw must be a real neighbor.
  for (const auto& [v, count] : observed) {
    ASSERT_TRUE(multiplicity.count(static_cast<std::uint32_t>(v)))
        << "sampled non-neighbor " << v << " from " << u;
  }
  double chi2 = 0.0;
  for (const auto& [v, mult] : multiplicity) {
    const double expected = static_cast<double>(draws) *
                            static_cast<double>(mult) /
                            static_cast<double>(slice.size());
    const auto it = observed.find(v);
    const double got =
        it == observed.end() ? 0.0 : static_cast<double>(it->second);
    chi2 += (got - expected) * (got - expected) / expected;
  }
  const double df = static_cast<double>(multiplicity.size()) - 1.0;
  EXPECT_LT(chi2, df + 6.0 * std::sqrt(2.0 * df) + 6.0)
      << "node " << u << ": chi2 " << chi2 << " over df " << df;
}

template <typename Topo>
void run_distribution_checks(const Topo& topo, const Graph& g) {
  rng::Xoshiro256pp gen(0xD1FF5EED);
  const auto n = static_cast<std::uint32_t>(g.num_vertices());
  for (const std::uint32_t u : {0u, 1u, n / 2, n - 2, n - 1}) {
    SCOPED_TRACE(u);
    expect_uniform_over_adjacency(topo, g, u, gen);
  }
}

// ---------------------------------------------------------------------
// Rgg2D
// ---------------------------------------------------------------------

TEST(ImplicitDifferential, Rgg2DMatchesMaterializedReference) {
  const Rgg2D rgg(196, 0.12, 4);
  const Graph g = materialize(rgg);  // verifies symmetry internally
  ASSERT_EQ(g.num_vertices(), 196u);
  ASSERT_GE(g.min_degree(), 1u);  // connected regime at this radius

  // Edge set: the implicit pairwise test must agree with the
  // materialized adjacency for every pair.
  for (std::uint32_t u = 0; u < 196; ++u) {
    std::set<std::uint32_t> adj(g.neighbors(u).begin(), g.neighbors(u).end());
    for (std::uint32_t v = u + 1; v < 196; ++v) {
      ASSERT_EQ(rgg.connected(u, v), adj.count(v) > 0)
          << "pair " << u << "," << v;
    }
  }
  // Degree sequence.
  for (std::uint32_t u = 0; u < 196; ++u) {
    ASSERT_EQ(rgg.degree_of(u), g.degree(u)) << "node " << u;
  }
  run_distribution_checks(rgg, g);
  // And the explicit reference itself samples the same distribution.
  const ExplicitTopology ref(g, "rgg2d-ref");
  run_distribution_checks(ref, g);
}

// ---------------------------------------------------------------------
// Gnp
// ---------------------------------------------------------------------

TEST(ImplicitDifferential, GnpMatchesMaterializedReference) {
  const Gnp gnp(150, 0.08, 4);
  const Graph g = materialize(gnp);
  ASSERT_EQ(g.num_vertices(), 150u);
  ASSERT_GE(g.min_degree(), 1u);  // no isolated node at this (p, seed)

  for (std::uint32_t u = 0; u < 150; ++u) {
    std::set<std::uint32_t> adj(g.neighbors(u).begin(), g.neighbors(u).end());
    for (std::uint32_t v = u + 1; v < 150; ++v) {
      ASSERT_EQ(gnp.connected(u, v), adj.count(v) > 0)
          << "pair " << u << "," << v;
    }
  }
  for (std::uint32_t u = 0; u < 150; ++u) {
    ASSERT_EQ(gnp.degree_of(u), g.degree(u)) << "node " << u;
  }
  run_distribution_checks(gnp, g);
  const ExplicitTopology ref(g, "gnp-ref");
  run_distribution_checks(ref, g);
}

// ---------------------------------------------------------------------
// Ba
// ---------------------------------------------------------------------

TEST(ImplicitDifferential, BaMatchesMaterializedReference) {
  const Ba ba(150, 3, 4);
  // Independent path 1: per-node enumeration (for_each_neighbor).
  const Graph g = materialize(ba);
  ASSERT_EQ(g.num_vertices(), 150u);
  // Independent path 2: the raw Batagelj–Brandes edge list.
  std::vector<std::pair<Graph::vertex, Graph::vertex>> edges;
  for (std::uint64_t j = 0; j < ba.num_edges(); ++j) {
    edges.emplace_back(static_cast<Graph::vertex>(ba.source_of(j)),
                       static_cast<Graph::vertex>(ba.target_of(j)));
  }
  const Graph direct = Graph::from_edges(150, edges);
  ASSERT_EQ(direct.num_edges(), g.num_edges());
  for (std::uint32_t u = 0; u < 150; ++u) {
    std::vector<std::uint32_t> a(g.neighbors(u).begin(), g.neighbors(u).end());
    std::vector<std::uint32_t> b(direct.neighbors(u).begin(),
                                 direct.neighbors(u).end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b) << "node " << u;
  }
  // Degree sequence (multigraph degrees, self-loops counted twice).
  for (std::uint32_t u = 0; u < 150; ++u) {
    ASSERT_EQ(ba.degree_of(u), g.degree(u)) << "node " << u;
  }
  // Every node attaches d edges, so degree >= d everywhere.
  EXPECT_GE(g.min_degree(), 3u);
  run_distribution_checks(ba, g);
  const ExplicitTopology ref(g, "ba-ref");
  run_distribution_checks(ref, g);
}

}  // namespace
}  // namespace antdense::graph
