// Robot-swarm density estimation (Section 5.2), generalized from one
// property to K task groups: every agent simultaneously tracks encounter
// rates with each group and estimates each group's relative frequency
// f_g = d_g / d.  This is the task-allocation primitive the paper's
// introduction motivates (harvester ants reallocating workers based on
// densities of successful foragers).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/topology.hpp"
#include "rng/random.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256pp.hpp"
#include "sim/walk_engine.hpp"
#include "util/check.hpp"

namespace antdense::swarm {

struct SwarmConfig {
  /// Size of each task group; the total agent count is their sum.
  std::vector<std::uint32_t> group_sizes;
  std::uint32_t rounds = 0;

  std::uint32_t total_agents() const {
    std::uint32_t total = 0;
    for (std::uint32_t g : group_sizes) {
      total += g;
    }
    return total;
  }

  void validate() const {
    ANTDENSE_CHECK(group_sizes.size() >= 1, "need at least one group");
    ANTDENSE_CHECK(total_agents() >= 2, "need at least two agents");
    ANTDENSE_CHECK(rounds >= 1, "need at least one round");
  }
};

struct SwarmResult {
  /// group_frequency_estimates[a][g] = agent a's estimate of group g's
  /// relative frequency (encounters with g / all encounters).
  std::vector<std::vector<double>> group_frequency_estimates;
  /// density_estimates[a] = agent a's overall density estimate.
  std::vector<double> density_estimates;
  /// True relative frequency of each group (group size / total).
  std::vector<double> true_frequencies;
  std::vector<std::uint32_t> group_of_agent;
  std::uint32_t rounds = 0;
};

/// Runs the multi-group encounter tracker.  Group membership is assigned
/// by shuffling agents uniformly (the Section 5.2 uniformity assumption).
template <graph::Topology T>
SwarmResult run_swarm_estimation(const T& topo, const SwarmConfig& cfg,
                                 std::uint64_t seed) {
  cfg.validate();
  const std::uint32_t n_agents = cfg.total_agents();
  const auto n_groups = static_cast<std::uint32_t>(cfg.group_sizes.size());

  // Uniformly random group assignment.
  std::vector<std::uint32_t> group_of(n_agents);
  {
    std::uint32_t idx = 0;
    for (std::uint32_t g = 0; g < n_groups; ++g) {
      for (std::uint32_t i = 0; i < cfg.group_sizes[g]; ++i) {
        group_of[idx++] = g;
      }
    }
    rng::Xoshiro256pp assign_gen(rng::derive_seed(seed, 0x5A11u));
    rng::shuffle(assign_gen, group_of);
  }

  // counts[a * n_groups + g] = agent a's encounters with group g,
  // counted against one occupancy counter per group.
  struct GroupCounts {
    const std::vector<std::uint32_t>& group_of;
    std::uint32_t n_groups;
    std::vector<sim::CollisionCounter> counters;
    std::vector<std::uint64_t> counts;
    void fill(const sim::RoundView& v) {
      for (auto& counter : counters) {
        counter.begin_round();
      }
      for (std::uint32_t i = v.begin_agent; i < v.end_agent; ++i) {
        counters[group_of[i]].add(v.keys[i]);
      }
    }
    void after_round(const sim::RoundView& v) {
      for (std::uint32_t i = v.begin_agent; i < v.end_agent; ++i) {
        for (std::uint32_t g = 0; g < n_groups; ++g) {
          std::uint32_t occ = counters[g].occupancy(v.keys[i]);
          if (g == group_of[i]) {
            --occ;  // exclude self
          }
          counts[static_cast<std::size_t>(i) * n_groups + g] += occ;
        }
      }
    }
  } observer{group_of, n_groups,
             std::vector<sim::CollisionCounter>(
                 n_groups, sim::CollisionCounter(n_agents)),
             std::vector<std::uint64_t>(
                 static_cast<std::size_t>(n_agents) * n_groups, 0)};
  sim::WalkConfig walk;
  walk.num_agents = n_agents;
  walk.rounds = cfg.rounds;
  sim::run_walk(topo, walk, rng::derive_seed(seed, 0x5A22u), sim::SingleExec{},
                nullptr, observer);
  const std::vector<std::uint64_t>& counts = observer.counts;

  SwarmResult result;
  result.rounds = cfg.rounds;
  result.group_of_agent = std::move(group_of);
  result.true_frequencies.reserve(n_groups);
  for (std::uint32_t g = 0; g < n_groups; ++g) {
    result.true_frequencies.push_back(static_cast<double>(cfg.group_sizes[g]) /
                                      static_cast<double>(n_agents));
  }
  result.density_estimates.reserve(n_agents);
  result.group_frequency_estimates.reserve(n_agents);
  for (std::uint32_t i = 0; i < n_agents; ++i) {
    std::uint64_t total = 0;
    for (std::uint32_t g = 0; g < n_groups; ++g) {
      total += counts[static_cast<std::size_t>(i) * n_groups + g];
    }
    result.density_estimates.push_back(static_cast<double>(total) /
                                       cfg.rounds);
    std::vector<double> freqs(n_groups, 0.0);
    if (total > 0) {
      for (std::uint32_t g = 0; g < n_groups; ++g) {
        freqs[g] = static_cast<double>(
                       counts[static_cast<std::size_t>(i) * n_groups + g]) /
                   static_cast<double>(total);
      }
    }
    result.group_frequency_estimates.push_back(std::move(freqs));
  }
  return result;
}

}  // namespace antdense::swarm
