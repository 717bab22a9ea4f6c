// Graph generators.
//
// Lattice generators produce explicit copies of the implicit topologies
// (used to cross-validate the engine against the spectral module), and
// the random families reproduce the regimes Section 5.1 distinguishes:
//   - random_regular:      expanders — fast global mixing (Section 4.4)
//   - barabasi_albert:     power-law degrees, the social-network stand-in
//   - watts_strogatz:      small-world, slow-ish mixing with shortcuts
//   - erdos_renyi:         the classical baseline
// All generators are deterministic in the seed.  The adjacency of the
// random ones is pinned by hash (Generators.AdjacencyIsPinned in
// tests/test_generators.cpp): every expander result rests on it.
// random_regular, erdos_renyi and watts_strogatz keep their edge sets in
// a flat EdgeKeySet (edge_key_set.hpp).
#pragma once

#include <cstdint>

#include "graph/graph.hpp"

namespace antdense::graph {

/// Cycle on n >= 3 vertices.
Graph make_ring_graph(std::uint32_t n);

/// Path on n >= 2 vertices (not regular; netsize-only substrate).
Graph make_path_graph(std::uint32_t n);

/// Star with one hub and n-1 leaves (extreme degree skew for
/// degree-estimation tests).
Graph make_star_graph(std::uint32_t n);

/// Complete graph K_n.
Graph make_complete_graph(std::uint32_t n);

/// 2-D torus (wraps in both dimensions); 4-regular for sides >= 3.
Graph make_torus2d_graph(std::uint32_t width, std::uint32_t height);

/// k-dimensional hypercube, 2^k vertices.
Graph make_hypercube_graph(std::uint32_t k);

/// k-dimensional torus with the given side length; 2k-regular for
/// side >= 3.
Graph make_torus_kd_graph(std::uint32_t dimensions, std::uint32_t side);

/// Erdős–Rényi G(n, m): m distinct uniform edges, no self-loops.
Graph make_erdos_renyi_graph(std::uint32_t n, std::uint64_t m,
                             std::uint64_t seed);

/// Barabási–Albert preferential attachment: starts from a small clique
/// and attaches each new vertex with `attach` edges chosen proportional
/// to current degree.  Produces the power-law degree profile typical of
/// social networks.
Graph make_barabasi_albert_graph(std::uint32_t n, std::uint32_t attach,
                                 std::uint64_t seed);

/// Watts–Strogatz small world: ring lattice with k nearest neighbors per
/// side, each edge rewired with probability beta.
Graph make_watts_strogatz_graph(std::uint32_t n, std::uint32_t k, double beta,
                                std::uint64_t seed);

/// Random k-regular simple graph via the configuration model with
/// restarts (retries until no self-loops or parallel edges remain).
/// n*k must be even.  For k >= 3 this is an expander with high
/// probability — the Section 4.4 substrate.
Graph make_random_regular_graph(std::uint32_t n, std::uint32_t k,
                                std::uint64_t seed);

}  // namespace antdense::graph
