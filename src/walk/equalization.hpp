// Equalization (return-to-origin) measurements — Corollary 10 (the
// probability that a walk is back at its origin after m steps is
// Θ(1/(m+1)) + O(1/A) on the 2-D torus, 0 for odd m) and Corollary 16
// (moments of the equalization count over t steps grow as
// k! w^k log^k(2t)).
//
// Paper: Musco, Su & Lynch (PODC 2016, arXiv:1603.02981); full
// concept-to-header map in docs/ARCHITECTURE.md.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/topology.hpp"
#include "rng/xoshiro256pp.hpp"
#include "walk/trials.hpp"

namespace antdense::walk {

/// probability[m] = empirical P[walk is at its origin after m steps].
using EqualizationCurve = HitCurve;

/// Measures the equalization probability at every m <= m_max.
template <graph::Topology T>
EqualizationCurve measure_equalization_curve(const T& topo,
                                             std::uint32_t m_max,
                                             std::uint64_t trials,
                                             std::uint64_t seed,
                                             unsigned threads = 0) {
  return measure_hit_curve(
      m_max, trials, 4096, seed, 0xE0AAu, threads,
      [&](rng::Xoshiro256pp& gen, std::vector<std::uint64_t>& hits) {
        const typename T::node_type origin = topo.random_node(gen);
        const std::uint64_t origin_key = topo.key(origin);
        typename T::node_type u = origin;
        ++hits[0];
        for (std::uint32_t m = 1; m <= m_max; ++m) {
          u = topo.random_neighbor(u, gen);
          if (topo.key(u) == origin_key) {
            ++hits[m];
          }
        }
      });
}

/// Samples the number of equalizations (returns to origin) of a t-step
/// walk; one count per trial (the Corollary 16 random variable).
template <graph::Topology T>
std::vector<double> equalization_counts(const T& topo, std::uint32_t t,
                                        std::uint64_t trials,
                                        std::uint64_t seed,
                                        unsigned threads = 0) {
  return sample_trials(
      trials, 1024, seed, 0xE0BBu, threads, [&](rng::Xoshiro256pp& gen) {
        const typename T::node_type origin = topo.random_node(gen);
        const std::uint64_t origin_key = topo.key(origin);
        typename T::node_type u = origin;
        std::uint64_t c = 0;
        for (std::uint32_t m = 1; m <= t; ++m) {
          u = topo.random_neighbor(u, gen);
          if (topo.key(u) == origin_key) {
            ++c;
          }
        }
        return static_cast<double>(c);
      });
}

}  // namespace antdense::walk
