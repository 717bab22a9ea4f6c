// Runtime topology construction from spec strings.
//
// A topology spec is "family:params" — one string selects the substrate
// at runtime, so every paper figure can run on every graph family
// without recompiling:
//
//   torus2d:64x64                   2-D torus, width x height (Section 2)
//   ring:10000                      1-D torus (Section 4.2)
//   toruskd:3x22                    k-dim torus, k x side (Section 4.3)
//   hypercube:14                    k-dim hypercube (Section 4.5)
//   complete:4096                   complete graph (Section 1.1)
//   expander:d=8,n=100000,seed=7    random d-regular graph (Section 4.4)
//   rgg2d:n=1000000,r=0.002,seed=1  implicit toroidal geometric graph
//   gnp:n=2000,p=0.01,seed=1        implicit Erdős–Rényi G(n, p)
//   ba:n=5000,d=4,seed=1            implicit Barabási–Albert graph
//
// The Registry maps family names to factories producing
// graph::AnyTopology handles; built_in() carries the nine families above
// and register_family extends the vocabulary at runtime (new substrates
// plug into antdense_run without touching the driver).  canonical()
// re-emits the normalized spelling of a spec (real-valued parameters as
// their shortest exact round-trip decimal), so specs round-trip and
// malformed input fails with a precise std::invalid_argument naming the
// family and the offending key=value.
#pragma once

#include "graph/any_topology.hpp"
#include "scenario/spec_registry.hpp"

namespace antdense::scenario {

class Registry : public SpecRegistry<graph::AnyTopology()> {
 public:
  Registry()
      : SpecRegistry({.spec = "topology spec",
                      .kind = "topology family",
                      .part = "family",
                      .example = "torus2d:64x64"}) {}

  /// The registry holding the nine built-in families.
  static const Registry& built_in();
};

}  // namespace antdense::scenario
