// Topology-generic local density (§2.1.1): the one engine observer for
// the local-density workload.  The ball around an agent is enumerated
// by breadth-first expansion through AnyTopology::append_neighbors, so
// "agents within graph distance r" works on every substrate the
// Registry can build; on the 2-D torus the graph-distance ball *is* the
// wrap-aware L1 ball, and the observer agrees exactly with the
// brute-force sim::per_agent_local_density (tests/test_scenario.cpp
// pins this).
//
// Cost: one BFS per agent per checkpoint (O(agents x ball size)) — the
// walk's hot loop is untouched; balls are only expanded at snapshots.
//
// Shard-safe: every density row is preallocated (checkpoints x agents)
// and after_round writes only the view's agent slice, so the sharded
// engine can run one hook per shard concurrently; BFS scratch and the
// per-node memo are hook-local.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/any_topology.hpp"
#include "sim/walk_engine.hpp"

namespace antdense::scenario {

/// WalkEngine observer recording, at each checkpoint, every agent's
/// local density: (other agents within graph distance `radius`) /
/// (nodes within graph distance `radius`).
class BallDensityObserver {
 public:
  BallDensityObserver(const graph::AnyTopology& topo, std::uint32_t radius,
                      std::vector<std::uint32_t> checkpoints,
                      std::uint32_t num_agents);

  template <typename View>
  void after_round(const View& v, std::span<const std::uint64_t> positions) {
    record(v.round, v.begin_agent, v.end_agent, positions,
           [&v](std::uint64_t key) { return v.counter.occupancy(key); });
  }

  const std::vector<std::uint32_t>& checkpoints() const {
    return checkpoints_;
  }
  /// densities()[i][a] = agent a's local density at checkpoint i.
  const std::vector<std::vector<double>>& densities() const {
    return densities_;
  }
  std::vector<std::vector<double>> take_densities() {
    return std::move(densities_);
  }

 private:
  /// Fills densities_[checkpoint_of(round)][begin..end) — a no-op for
  /// non-checkpoint rounds.  `occupancy` reads the round's collision
  /// counter (type-erased so both engine counters work; balls are only
  /// expanded at checkpoints, so the indirection is off the hot loop).
  void record(std::uint32_t round, std::uint32_t begin_agent,
              std::uint32_t end_agent,
              std::span<const std::uint64_t> positions,
              const std::function<std::uint32_t(std::uint64_t)>& occupancy);

  const graph::AnyTopology* topo_;
  std::uint32_t radius_;
  std::vector<std::uint32_t> checkpoints_;
  std::vector<std::vector<double>> densities_;
};

}  // namespace antdense::scenario
