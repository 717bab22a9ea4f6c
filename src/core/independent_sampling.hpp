// Algorithm 4 (Appendix A) — the independent-sampling baseline.
//
// Agents flip a fair coin into `walking` or `stationary` state.  Walkers
// take the *deterministic* step (0,1) every round; everyone counts
// collisions.  Because walkers sweep disjoint fresh squares (t < sqrt(A))
// and stationary agents are uniform, each walker's count is a sum of
// independent Bernoulli(t/2A) samples over the other agents.  The final
// `c := c mod t` removes the t-fold collision trains produced by agents
// that started stacked on the same square in the same state.
// Theorem 32: t = Θ(log(1/δ)/(dε²)) suffices — the reference point the
// random-walk algorithm is measured against.
//
// Paper: Musco, Su & Lynch (PODC 2016, arXiv:1603.02981); full
// concept-to-header map in docs/ARCHITECTURE.md.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/torus2d.hpp"

namespace antdense::core {

struct IndependentSamplingResult {
  std::vector<double> estimates;  // per agent: 2*(c mod t)/t
  double true_density = 0.0;
  std::uint32_t rounds = 0;
};

/// Runs Algorithm 4 on the given torus.  Requires rounds < height so a
/// walker's +y sweep never revisits a node (the theorem's
/// t < sqrt(A) condition on a square torus).
IndependentSamplingResult run_independent_sampling(
    const graph::Torus2D& torus, std::uint32_t num_agents,
    std::uint32_t rounds, std::uint64_t seed);

}  // namespace antdense::core
