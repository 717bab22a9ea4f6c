// Walk range: the number of distinct nodes a t-step walk visits.
//
// On the 2-D torus the range grows as Θ(t / log t) (Dvoretzky–Erdős) —
// the flip side of Corollary 15's Θ(log t) repeat-visit law, and the
// quantity that determines how many distinct sensors/locations a token
// actually samples (Section 6.3.1).
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "graph/topology.hpp"
#include "rng/xoshiro256pp.hpp"
#include "walk/trials.hpp"

namespace antdense::walk {

struct RangeStats {
  double mean_range = 0.0;        // E[#distinct nodes in t steps]
  double mean_range_fraction = 0.0;  // mean range / (t + 1)
  std::vector<double> samples;
};

/// Measures the range of t-step walks from uniform starts (the start
/// node counts as visited).
template <graph::Topology T>
RangeStats measure_walk_range(const T& topo, std::uint32_t t,
                              std::uint64_t trials, std::uint64_t seed,
                              unsigned threads = 0) {
  std::vector<double> samples = sample_trials(
      trials, 256, seed, 0x4A46u, threads,
      [t](std::size_t) {
        std::unordered_set<std::uint64_t> visited;
        visited.reserve(static_cast<std::size_t>(t) * 2);
        return visited;
      },
      [&](rng::Xoshiro256pp& gen, std::unordered_set<std::uint64_t>& visited) {
        visited.clear();
        auto u = topo.random_node(gen);
        visited.insert(topo.key(u));
        for (std::uint32_t s = 0; s < t; ++s) {
          u = topo.random_neighbor(u, gen);
          visited.insert(topo.key(u));
        }
        return static_cast<double>(visited.size());
      });

  RangeStats out;
  double total = 0.0;
  for (double s : samples) {
    total += s;
  }
  out.mean_range = total / static_cast<double>(trials);
  out.mean_range_fraction = out.mean_range / (t + 1.0);
  out.samples = std::move(samples);
  return out;
}

}  // namespace antdense::walk
