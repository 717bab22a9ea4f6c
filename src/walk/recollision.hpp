// Empirical re-collision probability curves — the measurable content of
// Lemma 4 (2-D torus), Lemma 20 (ring), Lemma 22 (k-dim torus), Lemma 23
// (expander) and Lemma 25 (hypercube).
//
// Protocol: place two walkers on the same uniformly random node (a
// collision at round 0), walk both synchronously, and record for every
// m <= m_max whether they occupy the same node at round m.  The estimate
// of P[C | collision at 0] at each m comes from many independent trials.
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

/// probability[m] = empirical P[walkers coincide at round m];
/// probability[0] == 1 by construction.
using RecollisionCurve = HitCurve;

/// Measures the re-collision curve with `trials` independent pairs.
/// Deterministic in `seed` for any thread count.
template <graph::Topology T>
RecollisionCurve measure_recollision_curve(const T& topo, std::uint32_t m_max,
                                           std::uint64_t trials,
                                           std::uint64_t seed,
                                           unsigned threads = 0) {
  return measure_hit_curve(
      m_max, trials, 4096, seed, 0xC0DEu, threads,
      [&](rng::Xoshiro256pp& gen, std::vector<std::uint64_t>& hits) {
        typename T::node_type a = topo.random_node(gen);
        typename T::node_type b = a;
        ++hits[0];
        for (std::uint32_t m = 1; m <= m_max; ++m) {
          a = topo.random_neighbor(a, gen);
          b = topo.random_neighbor(b, gen);
          if (topo.key(a) == topo.key(b)) {
            ++hits[m];
          }
        }
      });
}

/// Samples the pair collision count over rounds 1..t conditioned on a
/// collision at round 0 (both walkers start on the same node) — the
/// quantity whose k-th moments Claim 14 bounds by k! w^k log^k(2t).
/// Returns one count per trial.
template <graph::Topology T>
std::vector<double> pair_collision_counts_given_first(const T& topo,
                                                      std::uint32_t t,
                                                      std::uint64_t trials,
                                                      std::uint64_t seed,
                                                      unsigned threads = 0) {
  return sample_trials(
      trials, 1024, seed, 0xC011u, threads, [&](rng::Xoshiro256pp& gen) {
        typename T::node_type a = topo.random_node(gen);
        typename T::node_type b = a;
        std::uint64_t c = 0;
        for (std::uint32_t m = 1; m <= t; ++m) {
          a = topo.random_neighbor(a, gen);
          b = topo.random_neighbor(b, gen);
          if (topo.key(a) == topo.key(b)) {
            ++c;
          }
        }
        return static_cast<double>(c);
      });
}

}  // namespace antdense::walk
