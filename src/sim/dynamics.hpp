// The dynamics layer's engine-facing contract: a WorldDynamics is a
// perturbation model that mutates the world *between* rounds of the
// synchronous walk (Musco, Su & Lynch, PODC 2016 — whose motivating
// ants/robots live in a world that changes underfoot; see ROADMAP item
// 4 and Hindes et al. on stochastic sensing and dynamics).
//
// Engine integration (sim::run_walk, every engine):
//
//   round r (r >= 2):   mutate(r, mut_gen, positions)     [serial]
//                       step agents from the WALK stream  [unchanged]
//                       rewrite_moves(prev, pos, b, e)    [per lane]
//                       count agents with count_mask()    [per lane]
//                       observer hooks                    [unchanged]
//
// The density workload hands a model in through DensityConfig::dynamics:
// run_density_walk passes it to run_walk and to its CollisionObserver,
// which skips dead slots, restarts reborn ones (birth_round) and routes
// raw counts through observe().
//
// RNG-stream isolation is the heart of the contract: every stochastic
// mutation draw comes from `mut_gen`, a generator the engine seeds via
// rng::derive_mutation_stream(stream_seed, model_seed()) — a
// domain-tagged stream that shares nothing with the walk, shard, trial,
// or observer streams.  The walk stream is consumed exactly as in the
// static engine (agents step even when dead or deflected), so:
//   1. a null dynamics pointer reproduces the static goldens bit for
//      bit, and
//   2. the sharded engine stays thread-count-invariant with dynamics
//      enabled — mutate() runs serially between rounds, and
//      rewrite_moves()/observe() are const, deterministic, and touch
//      only the view's agent range.
//
// Models work in the type-erased node domain (graph::AnyTopology,
// node_type = uint64): the scenario layer is the only producer of
// dynamics models, and it always runs on AnyTopology.  A model must be
// constructed over the same topology handle the engine is stepping.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "rng/xoshiro256pp.hpp"

namespace antdense::sim {

/// Abstract perturbation model driven by the engines' mutation phase
/// and read by CollisionObserver.  Implementations: sim/dynamic_world.hpp
/// (churn, drift, fade), built from spec strings by
/// scenario::DynamicsRegistry.
class WorldDynamics {
 public:
  virtual ~WorldDynamics() = default;

  /// Canonical "model:k=v,..." spelling of this instance, mirroring
  /// Registry::canonical for topologies (diagnostics and artifacts).
  virtual std::string name() const = 0;

  /// The model's own seed parameter, folded into the mutation-stream
  /// derivation so two models in otherwise-identical scenarios draw
  /// independent mutation randomness.
  virtual std::uint64_t model_seed() const = 0;

  /// One mutation tick, called serially before the stepping phase of
  /// every round r >= 2 (the world is pristine in round 1, matching the
  /// static engine's first round).  May relocate agents in `positions`
  /// (evicting walkers from failed nodes, placing reborn agents); all
  /// stochastic choices must come from `mut_gen`.
  virtual void mutate(std::uint32_t round, rng::Xoshiro256pp& mut_gen,
                      std::span<std::uint64_t> positions) = 0;

  /// True when the model constrains movement and the engine must call
  /// rewrite_moves after stepping (costs one position copy per round).
  virtual bool rewrites_moves() const { return false; }

  /// Deterministically rewrites the moves of agents [begin, end): agent
  /// i attempted prev[i] -> pos[i] on the *static* topology; the model
  /// may veto or deflect the move in place.  Const and data-race-free:
  /// the sharded engine calls it concurrently for disjoint ranges.
  virtual void rewrite_moves(std::span<const std::uint64_t> prev,
                             std::span<std::uint64_t> pos,
                             std::uint32_t begin, std::uint32_t end) const {
    (void)prev;
    (void)pos;
    (void)begin;
    (void)end;
  }

  /// Per-slot liveness mask (1 = count this agent into round occupancy),
  /// or nullptr when every agent always counts.  Stable between mutate
  /// calls; indexed by agent slot.
  virtual const std::uint8_t* count_mask() const { return nullptr; }

  /// The round in which slot `slot`'s current incarnation was born
  /// (1 for initial agents).  Observers reset a slot's accumulators
  /// when this changes — a reborn agent is a *new* anonymous agent.
  virtual std::uint32_t birth_round(std::uint32_t slot) const {
    (void)slot;
    return 1;
  }

  /// Whether slot `slot` is currently alive (dead slots keep stepping
  /// to preserve the walk stream, but neither count nor observe).
  virtual bool alive(std::uint32_t slot) const {
    (void)slot;
    return true;
  }

  /// True when the model perturbs observations and the observer must
  /// route each raw collision count through observe().
  virtual bool transforms_observations() const { return false; }

  /// Transforms slot `slot`'s raw partner count for this round.  Draws
  /// come from `gen` — the *observer's* view generator (walk or shard
  /// stream), in agent order within the view's range, which is what
  /// keeps sharded observation noise thread-count-invariant.  Const:
  /// called concurrently for disjoint ranges.
  virtual std::uint64_t observe(std::uint32_t slot, std::uint64_t others,
                                rng::Xoshiro256pp& gen) const {
    (void)slot;
    (void)gen;
    return others;
  }
};

}  // namespace antdense::sim
