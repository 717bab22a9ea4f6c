// Node-visit statistics for a single walk — Corollary 15.
//
// A t-step walk from a uniformly random start visits a *fixed* node j
// with probability O((t/A) log 2t), and conditioned on visiting at all,
// the expected number of visits is Θ(log 2t).  These are the quantities
// the sensor-network application (Section 6.3.1) cares about: repeat
// visits are the only gap between token sampling and independent
// sampling.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/topology.hpp"
#include "rng/xoshiro256pp.hpp"
#include "walk/trials.hpp"

namespace antdense::walk {

struct VisitStats {
  double p_visit = 0.0;             // P[c_j >= 1]
  double mean_visits_given_any = 0.0;  // E[c_j | c_j >= 1]
  double mean_visits = 0.0;            // E[c_j] (should be ~t/A)
  std::vector<double> counts;          // per-trial visit counts (c_j)
};

/// Measures visit statistics of a fixed target node over `trials`
/// independent t-step walks with uniform starting nodes.
template <graph::Topology T>
VisitStats measure_visits(const T& topo, typename T::node_type target,
                          std::uint32_t t, std::uint64_t trials,
                          std::uint64_t seed, unsigned threads = 0) {
  const std::uint64_t target_key = topo.key(target);
  std::vector<double> counts = sample_trials(
      trials, 1024, seed, 0x1717u, threads, [&](rng::Xoshiro256pp& gen) {
        typename T::node_type u = topo.random_node(gen);
        std::uint64_t c = topo.key(u) == target_key ? 1 : 0;
        for (std::uint32_t m = 1; m <= t; ++m) {
          u = topo.random_neighbor(u, gen);
          if (topo.key(u) == target_key) {
            ++c;
          }
        }
        return static_cast<double>(c);
      });

  VisitStats out;
  std::uint64_t visited = 0;
  double total = 0.0;
  for (double c : counts) {
    total += c;
    if (c >= 1.0) {
      ++visited;
    }
  }
  out.p_visit = static_cast<double>(visited) / static_cast<double>(trials);
  out.mean_visits = total / static_cast<double>(trials);
  out.mean_visits_given_any =
      visited == 0 ? 0.0 : total / static_cast<double>(visited);
  out.counts = std::move(counts);
  return out;
}

}  // namespace antdense::walk
