// The imperative half of the runtime scenario API: Experiment validates
// a ScenarioSpec, builds its substrate through the Registry, resolves
// the round budget (explicit rounds, or Theorem-1 planning via
// core::plan_rounds), and runs the requested workload through exactly
// one driver each:
//   - density: sim::run_density_walk, with a fresh dynamics model per
//     call when the spec names one;
//   - property: core::estimate_property_frequency;
//   - trajectory: sim::run_trajectory;
//   - local-density: sim::run_walk with the generic BallDensityObserver.
// Trial fan-outs (density, property) pool one driver call per derived
// seed through sim::pool_trial_estimates.
//
// The result is one uniform ScenarioResult for all four workloads:
// pooled per-agent estimates, summary statistics, optional checkpointed
// series, and a stable JSON serialization (schema
// "antdense.scenario.v1") that antdense_run emits and CI
// schema-validates.  Determinism: a ScenarioResult is bit-identical for
// a fixed spec, for any thread count — in every engine mode.  The
// spec's `engine` field selects the walk's execution policy
// (sim::SingleExec, ShardExec or VectorExec in sim/walk_engine.hpp);
// the modes are distinct experiments with distinct identities, so
// `threads` remains a pure resource knob.
//
// Paper: Musco, Su & Lynch (PODC 2016, arXiv:1603.02981).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/any_topology.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "util/json.hpp"

namespace antdense::scenario {

/// Moment summary of the pooled estimates, plus the paper's headline
/// accuracy metric: the fraction of estimates within (1 ± eps) of truth.
struct ScenarioSummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;          // sample standard deviation
  double standard_error = 0.0;  // of the mean
  double min = 0.0;
  double max = 0.0;
  double within_eps = 0.0;

  /// The seven summary keys, in schema order: the result document's and
  /// the campaign journal's "summary" object.
  util::JsonValue to_json() const;
};

/// Relative error of a pooled mean against the ground truth,
/// |mean - truth| / truth.  When the truth is exactly 0 (a property
/// sweep including property_fraction 0) it is undefined, and the rule
/// falls back to |mean| so the value stays finite and serializable;
/// aggregate such experiments separately.  Campaign journals and sweep
/// responses both report this.
double relative_error(double mean, double true_value);

struct ScenarioResult {
  ScenarioSpec spec;  // fully resolved: rounds is never 0 here
  std::string topology_name;
  std::uint64_t num_nodes = 0;
  /// The workload's ground truth: density d = (agents-1)/A for density /
  /// trajectory / local-density, the property frequency f_P for property.
  double true_value = 0.0;
  /// Pooled estimates: per agent per trial (density), per-agent
  /// frequencies (property), final-checkpoint values (trajectory /
  /// local-density).
  std::vector<double> estimates;
  ScenarioSummary summary;
  /// Snapshot rounds and per-trace series for trajectory / local-density
  /// (series[trace][i] pairs with checkpoints[i]); empty otherwise.
  std::vector<std::uint32_t> checkpoints;
  std::vector<std::vector<double>> series;
  double elapsed_seconds = 0.0;
  /// Wall-clock nanoseconds for the run — finer-grained twin of
  /// elapsed_seconds, surfaced as the optional `elapsed_ns` result key.
  /// Timing only: never part of the spec's identity_json.
  std::uint64_t elapsed_ns = 0;

  util::JsonValue to_json() const;
};

/// Optional progress tap for Experiment::run.  `on_progress(done, total)`
/// reports completed work units out of a fixed total — rounds for the
/// single-walk workloads (density trials==1, trajectory, local-density),
/// trials for the fan-out workloads (density trials>1, property).  Calls
/// may arrive from worker threads (trial fan-outs) but never concurrently
/// with themselves for round-level taps (end_round is serial in all three
/// engines).  The hooks observe execution without touching any RNG
/// stream, so results stay bit-identical with or without them.
struct ProgressHooks {
  std::function<void(std::uint64_t done, std::uint64_t total)> on_progress;
  /// Report every `round_stride` rounds (and always at the final round);
  /// 0 picks max(1, total/64).  Ignored for trial-grained workloads.
  std::uint32_t round_stride = 0;
};

class Experiment {
 public:
  /// Validates the spec, builds the topology, and resolves the round
  /// budget; throws std::invalid_argument on any inconsistency so
  /// drivers fail before burning cycles.
  explicit Experiment(ScenarioSpec spec);
  Experiment(ScenarioSpec spec, const Registry& registry);

  /// The resolved spec (rounds filled in when the input said 0).
  const ScenarioSpec& spec() const { return spec_; }
  const graph::AnyTopology& topology() const { return topo_; }

  ScenarioResult run() const;
  ScenarioResult run(const ProgressHooks& hooks) const;

 private:
  ScenarioSpec spec_;
  graph::AnyTopology topo_;
};

}  // namespace antdense::scenario
