// Running-estimate trajectories: Algorithm 1 is an *anytime* algorithm —
// the estimate c/r is valid after every round r.  This driver composes
// the shared walk engine with a CollisionObserver (accumulates counts)
// and a TrajectoryObserver (snapshots running estimates at checkpoints),
// powering the convergence-profile experiments and the quorum-sensing
// example's decision-latency analysis.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/topology.hpp"
#include "rng/splitmix64.hpp"
#include "sim/walk_engine.hpp"
#include "util/check.hpp"

namespace antdense::sim {

struct TrajectoryResult {
  /// checkpoints[i] = round number of the i-th snapshot (1-based rounds).
  std::vector<std::uint32_t> checkpoints;
  /// estimates[a][i] = tracked agent a's running estimate c/r at
  /// checkpoint i.
  std::vector<std::vector<double>> estimates;
  double true_density = 0.0;
};

/// Runs the standard density walk, snapshotting the first
/// `tracked_agents` agents' running estimates at each checkpoint.
/// Checkpoints must be strictly increasing; the last one is the total
/// round count.  `lazy_probability` is §6.1's stay-put probability and
/// `exec` the engine policy; `extra` observers ride after the trajectory
/// observer in pack order (an extra that draws no randomness leaves the
/// result bit-identical to the plain call).
template <graph::Topology T, ExecPolicy Exec = SingleExec,
          typename... Extra>
TrajectoryResult run_trajectory(const T& topo, std::uint32_t num_agents,
                                std::uint32_t tracked_agents,
                                const std::vector<std::uint32_t>& checkpoints,
                                std::uint64_t seed,
                                double lazy_probability = 0.0,
                                const Exec& exec = {}, Extra&... extra) {
  ANTDENSE_CHECK(num_agents >= 2, "need at least two agents");
  CollisionObserver counts(num_agents);
  // Validates tracked_agents and the checkpoint sequence.
  TrajectoryObserver trajectory(counts, tracked_agents, checkpoints);

  WalkConfig cfg;
  cfg.num_agents = num_agents;
  cfg.rounds = checkpoints.back();
  cfg.lazy_probability = lazy_probability;
  // Pack order matters: counts must update before trajectory reads them.
  run_walk(topo, cfg, rng::derive_seed(seed, 0x7124u), exec,
           static_cast<const std::vector<typename T::node_type>*>(nullptr),
           counts, trajectory, extra...);

  TrajectoryResult result;
  result.checkpoints = trajectory.checkpoints();
  result.estimates = trajectory.take_estimates();
  result.true_density = static_cast<double>(num_agents - 1) /
                        static_cast<double>(topo.num_nodes());
  return result;
}

}  // namespace antdense::sim
