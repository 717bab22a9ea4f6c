// The synchronous multi-agent random-walk drivers (the paper's model,
// Section 2): N anonymous agents on a regular topology, one step per
// round, collision counting through count(position) at the end of each
// round.  Both drivers are thin wrappers over the shared round loop in
// sim/walk_engine.hpp — run_density_walk is the engine plus a
// CollisionObserver, run_property_walk the engine plus a
// PropertyObserver — and take the engine's execution policy (SingleExec
// by default, ShardExec or VectorExec), keeping the same seed tags on
// every engine.
//
// run_density_walk is the one density driver for static and dynamic
// worlds alike: a DensityConfig::dynamics model (churn, drift, fade;
// sim/dynamic_world.hpp) rides into the walk through walk_config() and
// into the CollisionObserver, which then estimates per living slot.
//
// The drivers also implement the perturbations Section 6.1 proposes for
// robustness studies (they are *off* by default, matching the paper's
// model exactly):
//   - lazy_probability: agent stays put with probability p each round;
//   - detection_miss_probability: each colliding partner goes undetected
//     independently with probability p (sampled as one binomial draw per
//     agent);
//   - spurious_collision_probability: a phantom collision is recorded
//     with probability p per round;
//   - caller-supplied initial positions (non-uniform placement).
//
// Determinism contract: for a fixed seed, results are bit-identical to
// the pre-engine loops (frozen in sim/legacy_reference.hpp) in every
// mode except detection_miss_probability > 0, whose stream was
// re-goldened when the per-partner Bernoulli loop became a binomial
// draw.  tests/test_walk_engine.cpp pins both sides of this contract.
//
// Paper: Musco, Su & Lynch (PODC 2016, arXiv:1603.02981); full
// concept-to-header map in docs/ARCHITECTURE.md.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/topology.hpp"
#include "rng/splitmix64.hpp"
#include "sim/walk_engine.hpp"
#include "util/check.hpp"

namespace antdense::sim {

struct DensityConfig {
  std::uint32_t num_agents = 0;
  std::uint32_t rounds = 0;
  double lazy_probability = 0.0;
  double detection_miss_probability = 0.0;
  double spurious_collision_probability = 0.0;
  /// An agent's whole observation is lost w.p. p per round (the round
  /// still divides the estimate) — see CollisionObserver::Noise.
  double observation_dropout_probability = 0.0;
  /// Optional world-mutation model (sim/dynamics.hpp), not owned; null
  /// is the static walk.  A model is stateful: give each walk its own.
  WorldDynamics* dynamics = nullptr;

  void validate() const {
    ANTDENSE_CHECK(num_agents >= 1, "need at least one agent");
    ANTDENSE_CHECK(rounds >= 1, "need at least one round");
    ANTDENSE_CHECK(lazy_probability >= 0.0 && lazy_probability < 1.0,
                   "lazy probability must be in [0,1)");
    ANTDENSE_CHECK(detection_miss_probability >= 0.0 &&
                       detection_miss_probability <= 1.0,
                   "miss probability must be in [0,1]");
    ANTDENSE_CHECK(spurious_collision_probability >= 0.0 &&
                       spurious_collision_probability <= 1.0,
                   "spurious probability must be in [0,1]");
    ANTDENSE_CHECK(observation_dropout_probability >= 0.0 &&
                       observation_dropout_probability <= 1.0,
                   "dropout probability must be in [0,1]");
  }

  /// The sensing-noise slice, for CollisionObserver.
  CollisionObserver::Noise noise() const {
    return {.detection_miss = detection_miss_probability,
            .spurious = spurious_collision_probability,
            .dropout = observation_dropout_probability};
  }

  /// The movement slice of this config (with the model that mutates
  /// the world), for the walk engine.
  WalkConfig walk_config() const {
    WalkConfig cfg;
    cfg.num_agents = num_agents;
    cfg.rounds = rounds;
    cfg.lazy_probability = lazy_probability;
    cfg.dynamics = dynamics;
    return cfg;
  }
};

struct DensityResult {
  std::vector<std::uint64_t> collision_counts;  // per agent, summed rounds
  std::uint32_t rounds = 0;
  std::uint64_t num_nodes = 0;
  /// Dynamic worlds only: rounds each slot's current incarnation
  /// observed, 0 for slots not alive at the end.  Empty on a static
  /// world, where every slot observed all `rounds`.
  std::vector<std::uint32_t> observed_rounds;

  /// The paper's density d = n/A where n is the number of *other* agents.
  double true_density() const {
    return static_cast<double>(collision_counts.size() - 1) /
           static_cast<double>(num_nodes);
  }

  /// Per-agent estimates d~ = c / t (Algorithm 1's return value), for
  /// every slot on a static world and for the living slots on a dynamic
  /// one.
  std::vector<double> estimates() const {
    std::vector<double> out;
    out.reserve(collision_counts.size());
    for (std::size_t i = 0; i < collision_counts.size(); ++i) {
      const std::uint32_t t =
          observed_rounds.empty() ? rounds : observed_rounds[i];
      if (t > 0) {
        out.push_back(static_cast<double>(collision_counts[i]) / t);
      }
    }
    return out;
  }
};

/// Runs Algorithm 1 for every agent simultaneously and returns all
/// per-agent collision counts.  If `initial_positions` is non-null it
/// must hold num_agents nodes (used by the non-uniform-placement
/// experiments); otherwise agents start i.i.d. uniform, as the paper
/// assumes.  Deterministic in `seed` on each engine.
///
/// With cfg.dynamics set (uint64-node topologies only, i.e.
/// graph::AnyTopology) the walk stream is the same tag-0x51 stream and
/// the model mutates between rounds from its own derived stream; the
/// result's estimates() cover the slots alive at the end.  Sharded stays
/// bit-identical for any ShardExec::threads.
///
/// `extra` observers ride after the CollisionObserver in pack order
/// (the scenario layer attaches its round-progress observer here); an
/// extra observer that draws no randomness leaves the result stream
/// bit-identical to the plain call.
template <graph::Topology T, ExecPolicy Exec = SingleExec,
          typename... Extra>
DensityResult run_density_walk(
    const T& topo, const DensityConfig& cfg, std::uint64_t seed,
    const Exec& exec = {},
    const std::vector<typename T::node_type>* initial_positions = nullptr,
    Extra&... extra) {
  cfg.validate();
  CollisionObserver observer(cfg.num_agents, cfg.noise(), cfg.dynamics);
  run_walk(topo, cfg.walk_config(), rng::derive_seed(seed, 0x51u), exec,
           initial_positions, observer, extra...);

  DensityResult result;
  result.collision_counts = observer.take_counts();
  result.observed_rounds = observer.take_observed_rounds();
  result.rounds = cfg.rounds;
  result.num_nodes = topo.num_nodes();
  return result;
}

struct PropertyResult {
  std::vector<std::uint64_t> total_counts;     // collisions with anyone
  std::vector<std::uint64_t> property_counts;  // collisions with P-agents
  std::uint32_t rounds = 0;
  std::uint64_t num_nodes = 0;
};

/// Two-class variant for Section 5.2: agents additionally detect whether
/// a colliding partner carries property P, tracking both encounter
/// counters simultaneously (one walk, two rates).  Honors
/// cfg.lazy_probability (the pre-engine loop silently ignored it); the
/// sensing-noise probabilities still apply only to run_density_walk.
template <graph::Topology T, ExecPolicy Exec = SingleExec>
PropertyResult run_property_walk(const T& topo, const DensityConfig& cfg,
                                 const std::vector<bool>& has_property,
                                 std::uint64_t seed, const Exec& exec = {}) {
  cfg.validate();
  ANTDENSE_CHECK(has_property.size() == cfg.num_agents,
                 "property flags must match agent count");
  PropertyObserver observer(has_property);
  run_walk(topo, cfg.walk_config(), rng::derive_seed(seed, 0x52u), exec,
           static_cast<const std::vector<typename T::node_type>*>(nullptr),
           observer);

  PropertyResult result;
  result.total_counts = observer.take_total_counts();
  result.property_counts = observer.take_property_counts();
  result.rounds = cfg.rounds;
  result.num_nodes = topo.num_nodes();
  return result;
}

}  // namespace antdense::sim
