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

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/any_topology.hpp"
#include "sim/dynamics.hpp"

namespace antdense::scenario {

class DynamicsRegistry {
 public:
  struct Family {
    /// Builds the model from the text after "model:", bound to the
    /// scenario's substrate and agent-slot count.  The returned model
    /// must not outlive `topo`.
    std::function<std::unique_ptr<sim::WorldDynamics>(
        const std::string& params, const graph::AnyTopology& topo,
        std::uint32_t agents)>
        make;
    /// Parses the params and re-emits the canonical "model:..." spec
    /// with every default made explicit.
    std::function<std::string(const std::string& params)> canonical;
    /// Grammar line plus an example for `antdense_run --list-dynamics`.
    std::string grammar;
  };

  /// The registry holding the built-in models (churn, drift, fade).
  static const DynamicsRegistry& built_in();

  /// Registers (or replaces) a model family under `name`.
  void register_family(const std::string& name, Family family);

  bool has_family(const std::string& name) const;
  std::vector<std::string> family_names() const;
  /// The registered grammar line for `name` (empty when the family did
  /// not provide one); throws std::invalid_argument on unknown names.
  const std::string& grammar(const std::string& name) const;

  /// Parses "model:params" and builds the model against `topo` /
  /// `agents`.  Throws std::invalid_argument on an unknown model or
  /// malformed params.
  std::unique_ptr<sim::WorldDynamics> make(const std::string& spec,
                                           const graph::AnyTopology& topo,
                                           std::uint32_t agents) const;

  /// Parses and re-serializes the spec into its canonical spelling
  /// (idempotent; same error behavior as make).
  std::string canonical(const std::string& spec) const;

 private:
  const Family& family_for(const std::string& spec,
                           std::string* params) const;

  std::map<std::string, Family> families_;
};

}  // namespace antdense::scenario
