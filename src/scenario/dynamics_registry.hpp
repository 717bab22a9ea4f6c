// Runtime world-dynamics construction from spec strings — the
// perturbation-API sibling of scenario::Registry.
//
// A dynamics spec is "model:k=v,k=v" — one string selects (and
// parameterizes) a sim::WorldDynamics perturbation model at runtime, so
// dynamic scenarios sweep like any other campaign axis:
//
//   churn:p_edge=0.001,p_fail=0.0005     edge churn + node failure on a
//                                        time-varying topology overlay
//   drift:p_death=0.01,p_birth=0.01      agent birth/death (density
//                                        under population drift)
//   fade:p0=0.1,step=0.02                per-agent time-varying
//                                        detection-miss probability
//
// The grammar mirrors the topology registry exactly: strict key=value
// parsing (unknown keys, duplicates-last-wins, typed values), canonical
// re-emission with all defaults made explicit (identity_json embeds the
// canonical spelling, so "churn:p_fail=0,p_edge=0" and
// "churn:p_edge=0,p_fail=0" hash identically), and diagnostics that
// name the model and the offending key=value.  Model factories bind to
// the scenario's substrate and agent count, which only the Experiment
// knows — hence make() takes both.
#pragma once

#include <cstdint>
#include <memory>

#include "graph/any_topology.hpp"
#include "scenario/spec_registry.hpp"
#include "sim/dynamics.hpp"

namespace antdense::scenario {

/// The model make(spec, topo, agents) returns must not outlive `topo`.
class DynamicsRegistry
    : public SpecRegistry<std::unique_ptr<sim::WorldDynamics>(
          const graph::AnyTopology& topo, std::uint32_t agents)> {
 public:
  DynamicsRegistry()
      : SpecRegistry({.spec = "dynamics spec",
                      .kind = "dynamics model",
                      .part = "model",
                      .example = "churn:p_edge=0.001,p_fail=0.0005"}) {}

  /// The registry holding the built-in models (churn, drift, fade).
  static const DynamicsRegistry& built_in();
};

}  // namespace antdense::scenario
