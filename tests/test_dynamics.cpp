// The dynamics layer, unit level: TimeVaryingWorld overlay semantics,
// the three built-in WorldDynamics models, DynamicsRegistry parsing /
// canonicalization / diagnostics, the redesigned sensing sub-object
// (both JSON spellings), and the identity rules — pinned hashes prove
// dynamics-absent specs keep their historical identity_hash and that
// spelling variants of one dynamic spec collapse to one hash.
#include "sim/dynamic_world.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/any_topology.hpp"
#include "graph/time_varying.hpp"
#include "rng/random.hpp"
#include "rng/stream.hpp"
#include "rng/xoshiro256pp.hpp"
#include "scenario/dynamics_registry.hpp"
#include "scenario/experiment.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "sim/density_sim.hpp"
#include "sim/walk_engine.hpp"
#include "util/json.hpp"

namespace antdense {
namespace {

using scenario::DynamicsRegistry;
using scenario::EngineMode;
using scenario::Registry;
using scenario::ScenarioSpec;
using scenario::SensingSpec;
using scenario::Workload;

// ---------------------------------------------------------------------
// TimeVaryingWorld
// ---------------------------------------------------------------------

TEST(TimeVaryingWorld, TracksFailuresAndDownEdges) {
  const graph::AnyTopology topo = Registry::built_in().make("ring:8");
  graph::TimeVaryingWorld world(topo);

  EXPECT_EQ(world.num_failed_nodes(), 0u);
  EXPECT_EQ(world.num_down_edges(), 0u);
  EXPECT_TRUE(world.move_allowed(0, 1));

  EXPECT_TRUE(world.fail_node(3));
  EXPECT_FALSE(world.fail_node(3)) << "already failed";
  EXPECT_TRUE(world.node_failed(3));
  EXPECT_FALSE(world.node_failed(4));
  EXPECT_FALSE(world.move_allowed(2, 3));
  EXPECT_TRUE(world.move_allowed(3, 3)) << "staying put is always allowed";

  EXPECT_TRUE(world.drop_edge(5, 6));
  EXPECT_FALSE(world.drop_edge(6, 5)) << "undirected: same edge";
  EXPECT_TRUE(world.edge_down(5, 6));
  EXPECT_TRUE(world.edge_down(6, 5));
  EXPECT_FALSE(world.edge_down(6, 7));
  EXPECT_FALSE(world.move_allowed(5, 6));
  EXPECT_TRUE(world.move_allowed(6, 7));
}

TEST(TimeVaryingWorld, DeflectPicksSmallestAdmissibleNeighbor) {
  const graph::AnyTopology topo = Registry::built_in().make("ring:8");
  graph::TimeVaryingWorld world(topo);
  std::vector<std::uint64_t> scratch;

  // Ring neighbors of 4 are {3, 5}; unperturbed, deflect picks 3.
  EXPECT_EQ(world.deflect(4, scratch), 3u);
  world.fail_node(3);
  EXPECT_EQ(world.deflect(4, scratch), 5u);
  world.drop_edge(4, 5);
  EXPECT_EQ(world.deflect(4, scratch), 4u) << "every neighbor blocked";
}

TEST(TimeVaryingWorld, RecoverSweepsWithProbabilityOne) {
  const graph::AnyTopology topo = Registry::built_in().make("ring:16");
  graph::TimeVaryingWorld world(topo);
  world.fail_node(1);
  world.fail_node(9);
  world.drop_edge(2, 3);
  rng::Xoshiro256pp gen(7);
  world.recover(0.0, gen);
  EXPECT_EQ(world.num_failed_nodes(), 2u);
  EXPECT_EQ(world.num_down_edges(), 1u);
  world.recover(1.0, gen);
  EXPECT_EQ(world.num_failed_nodes(), 0u);
  EXPECT_EQ(world.num_down_edges(), 0u);
}

// ---------------------------------------------------------------------
// WorldDynamics models
// ---------------------------------------------------------------------

TEST(ChurnDynamics, ZeroRatesConsumeNoRandomnessAndRewriteNothing) {
  const graph::AnyTopology topo = Registry::built_in().make("torus2d:8x8");
  sim::ChurnDynamics model(topo, 0.0, 0.0, 10, 5);
  EXPECT_FALSE(model.rewrites_moves());

  std::vector<std::uint64_t> pos(6, 0);
  rng::Xoshiro256pp mut_gen(99);
  model.mutate(2, mut_gen, std::span<std::uint64_t>(pos));
  rng::Xoshiro256pp fresh(99);
  EXPECT_EQ(mut_gen(), fresh())
      << "a churn tick with p_edge=p_fail=0 and nothing down must not "
         "touch the mutation stream";
  EXPECT_EQ(model.world().num_failed_nodes(), 0u);
}

TEST(ChurnDynamics, EvictsWalkersFromFailedNodes) {
  const graph::AnyTopology topo = Registry::built_in().make("ring:8");
  // p_fail=1 with a huge mean_down: every tick fails Binomial(8, 1) = 8
  // node draws (with repeats), so failures accumulate fast.
  sim::ChurnDynamics model(topo, 0.0, 1.0, 1000000, 3);
  std::vector<std::uint64_t> pos = {0, 1, 2, 3, 4, 5};
  rng::Xoshiro256pp mut_gen(rng::derive_mutation_stream(11, 3));
  model.mutate(2, mut_gen, std::span<std::uint64_t>(pos));
  EXPECT_GT(model.world().num_failed_nodes(), 0u);
  std::vector<std::uint64_t> scratch;
  for (const std::uint64_t p : pos) {
    EXPECT_FALSE(model.world().node_failed(topo.key(p)) &&
                 model.world().deflect(p, scratch) != p)
        << "no walker may remain on a failed node that has an "
           "admissible neighbor";
  }
}

TEST(ChurnDynamics, RewriteMovesBlocksDownEdgesAndDeflectsIntoFailures) {
  const graph::AnyTopology topo = Registry::built_in().make("ring:8");
  sim::ChurnDynamics model(topo, 0.5, 0.5, 10, 1);
  // Drive the world into a known state through its public surface: the
  // model's overlay is reachable via world(), but rewrite_moves is what
  // the engines call, so test through a hand-built sibling world.
  graph::TimeVaryingWorld world(topo);
  world.drop_edge(1, 2);
  world.fail_node(5);

  // Mirror those mutations through a model by failing via mutate is
  // nondeterministic; instead check the rewrite contract on the
  // hand-built world directly.
  std::vector<std::uint64_t> scratch;
  EXPECT_FALSE(world.move_allowed(1, 2));
  EXPECT_FALSE(world.move_allowed(4, 5));
  EXPECT_EQ(world.deflect(4, scratch), 3u);
}

TEST(DriftDynamics, KillsAndRevivesPopulationsAtExtremeRates) {
  const graph::AnyTopology topo = Registry::built_in().make("ring:32");
  sim::DriftDynamics model(topo, 8, /*p_death=*/1.0, /*p_birth=*/0.0, 1);
  std::vector<std::uint64_t> pos(8, 0);
  rng::Xoshiro256pp mut_gen(4);
  model.mutate(2, mut_gen, std::span<std::uint64_t>(pos));
  for (std::uint32_t slot = 0; slot < 8; ++slot) {
    EXPECT_FALSE(model.alive(slot));
    EXPECT_EQ(model.count_mask()[slot], 0);
  }

  sim::DriftDynamics cycle(topo, 4, /*p_death=*/1.0, /*p_birth=*/1.0, 1);
  std::vector<std::uint64_t> pos4(4, 0);
  cycle.mutate(2, mut_gen, std::span<std::uint64_t>(pos4));  // all die
  cycle.mutate(3, mut_gen, std::span<std::uint64_t>(pos4));  // all reborn
  for (std::uint32_t slot = 0; slot < 4; ++slot) {
    EXPECT_TRUE(cycle.alive(slot));
    EXPECT_EQ(cycle.birth_round(slot), 3u)
        << "a reborn slot restarts its estimate at its birth round";
  }
}

TEST(FadeDynamics, MissWalkStaysInUnitIntervalAndGatesObservations) {
  sim::FadeDynamics model(16, /*p0=*/0.9, /*step=*/0.3, 2);
  std::vector<std::uint64_t> pos(16, 0);
  rng::Xoshiro256pp mut_gen(8);
  for (std::uint32_t r = 2; r < 40; ++r) {
    model.mutate(r, mut_gen, std::span<std::uint64_t>(pos));
    for (const double p : model.miss_probabilities()) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }

  sim::FadeDynamics blind(2, /*p0=*/1.0, /*step=*/0.0, 0);
  EXPECT_TRUE(blind.transforms_observations());
  rng::Xoshiro256pp gen(1);
  EXPECT_EQ(blind.observe(0, 17, gen), 0u) << "miss=1 drops every partner";
  sim::FadeDynamics sharp(2, /*p0=*/0.0, /*step=*/0.0, 0);
  rng::Xoshiro256pp gen2(1);
  EXPECT_EQ(sharp.observe(0, 17, gen2), 17u);
  EXPECT_EQ(gen2(), rng::Xoshiro256pp(1)())
      << "miss=0 must not consume observation randomness";
}

// ---------------------------------------------------------------------
// DynamicsRegistry
// ---------------------------------------------------------------------

TEST(DynamicsRegistry, ListsBuiltInModelsWithGrammar) {
  const DynamicsRegistry& reg = DynamicsRegistry::built_in();
  const std::vector<std::string> names = reg.family_names();
  EXPECT_EQ(names, (std::vector<std::string>{"churn", "drift", "fade"}));
  for (const std::string& name : names) {
    EXPECT_TRUE(reg.has_family(name));
    EXPECT_FALSE(reg.grammar(name).empty());
    EXPECT_EQ(reg.grammar(name).rfind(name + ":", 0), 0u)
        << "grammar lines lead with the canonical spec prefix";
  }
}

TEST(DynamicsRegistry, CanonicalIsOrderFreeExplicitAndIdempotent) {
  const DynamicsRegistry& reg = DynamicsRegistry::built_in();
  const std::string canon = reg.canonical("churn:p_fail=0.5,p_edge=0.25");
  EXPECT_EQ(canon, "churn:p_edge=0.25,p_fail=0.5,mean_down=10,seed=0");
  EXPECT_EQ(reg.canonical(canon), canon) << "canonical is idempotent";
  EXPECT_EQ(reg.canonical("drift:p_death=0.01,p_birth=0.02"),
            "drift:p_death=0.01,p_birth=0.02,seed=0");
  EXPECT_EQ(reg.canonical("fade:p0=0.1,step=0.02,seed=9"),
            "fade:p0=0.1,step=0.02,seed=9");
}

TEST(DynamicsRegistry, MakeBuildsModelsWhoseNameIsTheCanonicalSpec) {
  const DynamicsRegistry& reg = DynamicsRegistry::built_in();
  const graph::AnyTopology topo = Registry::built_in().make("torus2d:8x8");
  for (const char* spec :
       {"churn:p_edge=0.01,p_fail=0.005", "drift:p_death=0.1,p_birth=0.1",
        "fade:p0=0.2,step=0.05"}) {
    const auto model = reg.make(spec, topo, 16);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->name(), reg.canonical(spec))
        << "a built model re-spells its own canonical spec";
  }
}

TEST(DynamicsRegistry, DiagnosticsNameTheModelAndTheOffendingKeyValue) {
  const DynamicsRegistry& reg = DynamicsRegistry::built_in();
  const auto expect_message = [&](const std::string& spec,
                                  const std::string& fragment) {
    try {
      reg.canonical(spec);
      FAIL() << "expected '" << spec << "' to be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << "message '" << e.what() << "' must contain '" << fragment
          << "'";
    }
  };
  expect_message("quake:p=1", "unknown dynamics model 'quake'");
  expect_message("quake:p=1", "churn, drift, fade");
  expect_message("churn", "model:params");
  expect_message("churn:p_edge=0.1", "missing required parameter 'p_fail'");
  expect_message("churn:p_edge=0.1,p_fail=0.1,warp=2",
                 "unknown parameter 'warp=2'");
  expect_message("churn:p_edge=oops,p_fail=0",
                 "parameter 'p_edge=oops': expected a real number");
  expect_message("churn:p_edge=2,p_fail=0",
                 "parameter 'p_edge=2': must be in [0,1]");
  expect_message("churn:p_edge=0,p_fail=0,mean_down=0",
                 "parameter 'mean_down=0'");
  expect_message("drift:p_death=0.1", "missing required parameter");
  expect_message("fade:p0=1.5,step=0", "parameter 'p0=1.5'");
}

// ---------------------------------------------------------------------
// SensingSpec: both JSON spellings, one emission contract
// ---------------------------------------------------------------------

TEST(SensingSpec, FlatKeysAndVersionedObjectParseIdentically) {
  const ScenarioSpec flat = ScenarioSpec::from_json(util::JsonValue::parse(
      R"({"miss": 0.25, "spurious": 0.02, "dropout": 0.1})"));
  const ScenarioSpec structured =
      ScenarioSpec::from_json(util::JsonValue::parse(
          R"({"sensing": {"version": 1, "miss": 0.25, "spurious": 0.02,
              "dropout": 0.1}})"));
  EXPECT_EQ(flat.sensing.detection_miss, 0.25);
  EXPECT_EQ(flat.sensing.spurious, 0.02);
  EXPECT_EQ(flat.sensing.dropout, 0.1);
  EXPECT_EQ(structured.sensing.detection_miss, flat.sensing.detection_miss);
  EXPECT_EQ(structured.sensing.spurious, flat.sensing.spurious);
  EXPECT_EQ(structured.sensing.dropout, flat.sensing.dropout);
  EXPECT_TRUE(flat.sensing.any());
  EXPECT_FALSE(ScenarioSpec{}.sensing.any());
}

TEST(SensingSpec, RejectsUnknownKeysAndForeignVersions) {
  EXPECT_THROW(ScenarioSpec::from_json(util::JsonValue::parse(
                   R"({"sensing": {"version": 2, "miss": 0.1}})")),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::from_json(util::JsonValue::parse(
                   R"({"sensing": {"mis": 0.1}})")),
               std::invalid_argument);
}

TEST(SensingSpec, EmissionIsIdentityStable) {
  // Dropout-free: the historical flat keys, byte for byte.
  ScenarioSpec spec;
  spec.sensing.detection_miss = 0.3;
  spec.sensing.spurious = 0.01;
  const util::JsonValue flat = spec.to_json();
  EXPECT_NE(flat.find("miss"), nullptr);
  EXPECT_NE(flat.find("spurious"), nullptr);
  EXPECT_EQ(flat.find("sensing"), nullptr);
  EXPECT_EQ(flat.find("dynamics"), nullptr);

  // Dropout set: the versioned object replaces the flat keys.
  spec.sensing.dropout = 0.05;
  const util::JsonValue structured = spec.to_json();
  EXPECT_EQ(structured.find("miss"), nullptr);
  EXPECT_EQ(structured.find("spurious"), nullptr);
  const util::JsonValue* sensing = structured.find("sensing");
  ASSERT_NE(sensing, nullptr);
  EXPECT_EQ(sensing->find("version")->as_uint(), SensingSpec::kVersion);
  EXPECT_EQ(sensing->find("dropout")->as_double(), 0.05);

  // Both shapes round-trip through from_json unchanged.
  const ScenarioSpec back = ScenarioSpec::from_json(structured);
  EXPECT_EQ(back.sensing.detection_miss, 0.3);
  EXPECT_EQ(back.sensing.dropout, 0.05);
}

// ---------------------------------------------------------------------
// Identity rules (hashes captured on the pre-dynamics build)
// ---------------------------------------------------------------------

TEST(Identity, DynamicsAbsentSpecsKeepTheirHistoricalHashes) {
  const Registry& reg = Registry::built_in();
  const auto hash_of = [&](const char* json) {
    return ScenarioSpec::from_json(util::JsonValue::parse(json))
        .identity_hash(reg);
  };
  EXPECT_EQ(hash_of(R"({"topology": "torus2d:32x32", "workload": "density",
                        "agents": 64, "rounds": 16, "seed": 1})"),
            "6b791ba8a22324ed");
  EXPECT_EQ(hash_of(R"({"topology": "torus2d:32x32", "workload": "density",
                        "agents": 64, "rounds": 16, "seed": 1,
                        "miss": 0.3, "spurious": 0.01})"),
            "852dd332fe5f235a");
  EXPECT_EQ(hash_of(R"({"topology": "ring:1024", "workload": "property",
                        "agents": 50, "rounds": 12,
                        "property-fraction": 0.25, "seed": 9,
                        "engine": "sharded", "threads": 8})"),
            "1ae6ba48666caa7a");
  EXPECT_EQ(hash_of(R"({"topology": "expander:n=512,d=8,seed=5",
                        "workload": "density", "agents": 100, "rounds": 0,
                        "eps": 0.2, "delta": 0.1, "engine": "vector",
                        "seed": 3, "lazy": 0.5})"),
            "11e6375517621ac0");
  EXPECT_EQ(hash_of(R"({"topology": "hypercube:10",
                        "workload": "trajectory", "tracked": 4,
                        "checkpoints": 5, "agents": 32, "rounds": 20,
                        "seed": 11})"),
            "6b50d01ab70dca71");
}

TEST(Identity, DynamicSpellingVariantsCollapseToOneHash) {
  const Registry& reg = Registry::built_in();
  ScenarioSpec a;
  a.dynamics = "churn:p_edge=0.01,p_fail=0.005";
  ScenarioSpec b;
  b.dynamics = "churn:p_fail=0.005,seed=0,p_edge=0.01,mean_down=10";
  EXPECT_EQ(a.identity_hash(reg), b.identity_hash(reg));
  ScenarioSpec c;
  EXPECT_NE(a.identity_hash(reg), c.identity_hash(reg))
      << "a dynamic spec must not collide with the static spec";
}

// ---------------------------------------------------------------------
// The vector engine runs dynamics through the same mutate phase
// ---------------------------------------------------------------------

TEST(Validation, VectorEngineAcceptsDynamics) {
  ScenarioSpec spec;
  spec.engine = EngineMode::kVector;
  spec.dynamics = "churn:p_edge=0.01,p_fail=0";
  EXPECT_NO_THROW(spec.validate());
}

TEST(Validation, VectorZeroRateChurnEqualsTheStaticVectorWalk) {
  const graph::AnyTopology topo = Registry::built_in().make("ring:64");
  sim::DensityConfig cfg;
  cfg.num_agents = 8;
  cfg.rounds = 40;
  const std::vector<double> expected =
      sim::run_density_walk(topo, cfg, 1, sim::VectorExec{}).estimates();
  sim::ChurnDynamics model(topo, 0.0, 0.0, 10, 1);
  cfg.dynamics = &model;
  EXPECT_EQ(sim::run_density_walk(topo, cfg, 1, sim::VectorExec{}).estimates(),
            expected);
}

TEST(Validation, DynamicsRestrictedToDensityWorkload) {
  ScenarioSpec spec;
  spec.topology = "torus2d:16x16";
  spec.workload = Workload::kTrajectory;
  spec.agents = 8;
  spec.rounds = 8;
  spec.dynamics = "drift:p_death=0.1,p_birth=0.1";
  EXPECT_THROW(scenario::Experiment{spec}, std::invalid_argument);
}

TEST(Validation, ExperimentCanonicalizesTheDynamicsSpec) {
  ScenarioSpec spec;
  spec.topology = "torus2d:8x8";
  spec.agents = 8;
  spec.rounds = 4;
  spec.dynamics = "churn:p_fail=0,p_edge=0";
  const scenario::Experiment experiment(spec);
  EXPECT_EQ(experiment.spec().dynamics,
            "churn:p_edge=0,p_fail=0,mean_down=10,seed=0");
}

}  // namespace
}  // namespace antdense
