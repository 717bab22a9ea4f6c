// Per-agent confidence intervals around the density estimate — a
// practical extension (Section 6.3 direction): an agent reports not just
// d~ = c/t but an interval derived from its *own* observation stream.
//
// Paper: Musco, Su & Lynch, "Ant-Inspired Density Estimation via Random
// Walks" (PODC 2016, arXiv:1603.02981).  Not an algorithm stated in the
// paper; it builds directly on the paper's variance analysis — the
// correlation-inflation factor below is Lemma 19's B(t) (log(2t) on the
// 2-D torus, Lemma 4) applied to an empirical-Bernstein interval.
//
// The agent keeps per-round collision counts x_1..x_t (mean is d~) and
// forms an empirical-Bernstein interval
//     d~ ± [ sqrt(2 V log(3/δ) / t) + 3 log(3/δ) / t ]
// with V the sample variance of the x_r.  The paper's analysis makes the
// caveat precise: the x_r are positively correlated on slow-mixing
// graphs, so nominal coverage needs an inflation factor on the order of
// the collision mass B(t) (log t on the 2-D torus).  The interval
// carries that factor explicitly; the tests measure actual coverage with
// and without it.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/topology.hpp"
#include "rng/splitmix64.hpp"
#include "sim/walk_engine.hpp"
#include "util/check.hpp"

namespace antdense::core {

struct AgentInterval {
  double estimate = 0.0;
  double lower = 0.0;
  double upper = 0.0;

  bool contains(double d) const { return d >= lower && d <= upper; }
};

/// Computes the empirical-Bernstein interval from one agent's per-round
/// collision counts.  `correlation_inflation` multiplies the width
/// (1.0 = assume independence; ~log(2t) is the torus-safe choice).
AgentInterval empirical_bernstein_interval(
    const std::vector<std::uint32_t>& per_round_counts, double delta,
    double correlation_inflation = 1.0);

struct ConfidenceRunResult {
  std::vector<AgentInterval> intervals;  // one per agent
  double true_density = 0.0;
};

/// Runs Algorithm 1 keeping every agent's per-round counts and returns
/// each agent's interval at confidence 1-delta.
template <graph::Topology T>
ConfidenceRunResult estimate_density_with_intervals(
    const T& topo, std::uint32_t num_agents, std::uint32_t rounds,
    double delta, double correlation_inflation, std::uint64_t seed) {
  ANTDENSE_CHECK(num_agents >= 2, "need at least two agents");
  ANTDENSE_CHECK(rounds >= 2, "need at least two rounds for a variance");

  // per_round[a * rounds + r]
  std::vector<std::uint32_t> per_round(
      static_cast<std::size_t>(num_agents) * rounds, 0);
  struct PerRoundCounts {
    std::vector<std::uint32_t>& out;
    std::uint32_t rounds;
    void after_round(const sim::RoundView& v) {
      for (std::uint32_t i = v.begin_agent; i < v.end_agent; ++i) {
        out[static_cast<std::size_t>(i) * rounds + v.round - 1] =
            v.counter.occupancy(v.keys[i]) - 1;
      }
    }
  } observer{per_round, rounds};
  sim::WalkConfig walk;
  walk.num_agents = num_agents;
  walk.rounds = rounds;
  sim::run_walk(topo, walk, rng::derive_seed(seed, 0xC1u), sim::SingleExec{},
                nullptr, observer);

  ConfidenceRunResult result;
  result.true_density = static_cast<double>(num_agents - 1) /
                        static_cast<double>(topo.num_nodes());
  result.intervals.reserve(num_agents);
  std::vector<std::uint32_t> row(rounds);
  for (std::uint32_t a = 0; a < num_agents; ++a) {
    for (std::uint32_t r = 0; r < rounds; ++r) {
      row[r] = per_round[static_cast<std::size_t>(a) * rounds + r];
    }
    result.intervals.push_back(
        empirical_bernstein_interval(row, delta, correlation_inflation));
  }
  return result;
}

}  // namespace antdense::core
