// First return and first meeting times.
//
// Kac's formula: on any regular graph the expected first-return time to
// a node equals A (the inverse stationary mass) — a sharp, closed-form
// cross-check of the whole walking engine.  First-meeting times of two
// walkers complement the re-collision curves: the re-collision bound
// controls how collisions *cluster*, the meeting time controls how long
// an agent waits between distinct encounter episodes.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/topology.hpp"
#include "rng/xoshiro256pp.hpp"
#include "walk/trials.hpp"

namespace antdense::walk {

struct FirstTimeStats {
  double mean = 0.0;
  double censored_fraction = 0.0;  // trials that never hit within the cap
  std::vector<double> samples;     // uncensored samples only

  /// Summarizes one first time per trial, -1 marking a censored trial.
  static FirstTimeStats from_results(const std::vector<double>& results) {
    FirstTimeStats out;
    std::uint64_t censored = 0;
    double total = 0.0;
    for (double r : results) {
      if (r < 0.0) {
        ++censored;
      } else {
        total += r;
        out.samples.push_back(r);
      }
    }
    out.censored_fraction = static_cast<double>(censored) /
                            static_cast<double>(results.size());
    out.mean = out.samples.empty()
                   ? 0.0
                   : total / static_cast<double>(out.samples.size());
    return out;
  }
};

/// First return time to the start node (walk launched from a uniform
/// start), capped at `max_steps`.  Censored trials are excluded from the
/// mean and reported separately.
template <graph::Topology T>
FirstTimeStats measure_first_return(const T& topo, std::uint32_t max_steps,
                                    std::uint64_t trials, std::uint64_t seed,
                                    unsigned threads = 0) {
  return FirstTimeStats::from_results(sample_trials(
      trials, 512, seed, 0xF157u, threads, [&](rng::Xoshiro256pp& gen) {
        const auto origin = topo.random_node(gen);
        const std::uint64_t origin_key = topo.key(origin);
        auto u = origin;
        for (std::uint32_t m = 1; m <= max_steps; ++m) {
          u = topo.random_neighbor(u, gen);
          if (topo.key(u) == origin_key) {
            return static_cast<double>(m);
          }
        }
        return -1.0;
      }));
}

/// First meeting time of two walkers launched from independent uniform
/// starts, capped at `max_steps`.
template <graph::Topology T>
FirstTimeStats measure_first_meeting(const T& topo, std::uint32_t max_steps,
                                     std::uint64_t trials, std::uint64_t seed,
                                     unsigned threads = 0) {
  return FirstTimeStats::from_results(sample_trials(
      trials, 512, seed, 0xF2EEu, threads, [&](rng::Xoshiro256pp& gen) {
        auto a = topo.random_node(gen);
        auto b = topo.random_node(gen);
        if (topo.key(a) == topo.key(b)) {
          return 0.0;
        }
        for (std::uint32_t m = 1; m <= max_steps; ++m) {
          a = topo.random_neighbor(a, gen);
          b = topo.random_neighbor(b, gen);
          if (topo.key(a) == topo.key(b)) {
            return static_cast<double>(m);
          }
        }
        return -1.0;
      }));
}

}  // namespace antdense::walk
