// The dynamics layer, end to end through scenario::Experiment:
//
//   - Goldens: dynamics-absent scenarios produce byte-identical result
//     documents to the pre-dynamics build across the whole workload x
//     engine matrix (the first hashes were captured before the layer
//     landed — the "static worlds are untouched" contract, which also
//     pins the sensing-spec redesign), and churn/drift/fade results are
//     pinned on the single and sharded engines.
//   - Invariance: a churned sharded walk is bit-identical for 1, 2, and
//     8 threads (mutation is serial; rewrites are per-range
//     deterministic).
//   - Degeneracy: churn with both rates 0 equals the static walk
//     estimate for estimate, and a drift model with no deaths/births
//     likewise.
//   - Statistics: relative error grows monotone-ish with churn
//     aggressiveness on a torus (fixed seeds, so deterministic).
#include "scenario/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/any_topology.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "sim/density_sim.hpp"
#include "sim/dynamic_world.hpp"
#include "sim/walk_engine.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace antdense {
namespace {

using scenario::Experiment;
using scenario::Registry;
using scenario::ScenarioSpec;

ScenarioSpec spec_of(const std::string& text) {
  return ScenarioSpec::from_json(util::JsonValue::parse(text));
}

/// The result document's content hash: to_json() minus the two wall-
/// clock fields, dumped compact.  Matches the pre-dynamics capture
/// procedure exactly.
std::string result_hash(const ScenarioSpec& spec) {
  util::JsonValue doc = Experiment(spec).run().to_json();
  doc.erase("elapsed_seconds");
  doc.erase("elapsed_ns");
  return util::hex64(util::fnv1a64(doc.dump(0)));
}

// ---------------------------------------------------------------------
// Static worlds are untouched: result-document goldens, all 3 engines
// ---------------------------------------------------------------------

TEST(DynamicScenarios, StaticResultsAreByteIdenticalToPreDynamicsBuild) {
  const struct {
    const char* json;
    const char* hash;
  } goldens[] = {
      {R"({"topology":"torus2d:32x32","workload":"density","agents":64,
           "rounds":16,"seed":1,"engine":"single"})",
       "db12d2519312913a"},
      {R"({"topology":"torus2d:32x32","workload":"density","agents":64,
           "rounds":16,"seed":1,"engine":"sharded","threads":3})",
       "395fd1682c502a72"},
      {R"({"topology":"torus2d:32x32","workload":"density","agents":64,
           "rounds":16,"seed":1,"engine":"vector"})",
       "150f499712b67a77"},
      {R"({"topology":"torus2d:32x32","workload":"density","agents":64,
           "rounds":16,"seed":1,"miss":0.25,"spurious":0.02,"trials":2,
           "engine":"single"})",
       "a2aec93c6a3889aa"},
      {R"({"topology":"torus2d:32x32","workload":"density","agents":64,
           "rounds":16,"seed":1,"miss":0.25,"spurious":0.02,"trials":2,
           "engine":"sharded","threads":2})",
       "ad9d8b70a39da091"},
      {R"({"topology":"ring:1024","workload":"property","agents":50,
           "rounds":12,"property-fraction":0.25,"seed":9,
           "engine":"sharded","threads":2})",
       "f7bee11785200bdd"},
      {R"({"topology":"hypercube:10","workload":"trajectory","tracked":4,
           "checkpoints":5,"agents":32,"rounds":20,"seed":11,
           "engine":"single"})",
       "50ccd5e52a6de938"},
      // The rest of the workload x engine matrix.
      {R"({"topology":"torus2d:32x32","workload":"density","agents":64,
           "rounds":16,"seed":1,"miss":0.25,"spurious":0.02,"trials":2,
           "engine":"vector"})",
       "67df52000ecb0b4e"},
      {R"({"topology":"ring:1024","workload":"property","agents":50,
           "rounds":12,"property-fraction":0.25,"seed":9,
           "engine":"single"})",
       "dd0a41d55e275ac5"},
      {R"({"topology":"ring:1024","workload":"property","agents":50,
           "rounds":12,"property-fraction":0.25,"seed":9,
           "engine":"vector"})",
       "aa5ff6678eb5f80f"},
      {R"({"topology":"ring:1024","workload":"property","agents":50,
           "rounds":12,"property-fraction":0.25,"seed":9,"trials":2,
           "engine":"sharded","threads":2})",
       "8742e8a7edd9f95a"},
      {R"({"topology":"hypercube:10","workload":"trajectory","tracked":4,
           "checkpoints":5,"agents":32,"rounds":20,"seed":11,
           "engine":"sharded","threads":3})",
       "3c69d17b2aacea76"},
      {R"({"topology":"hypercube:10","workload":"trajectory","tracked":4,
           "checkpoints":5,"agents":32,"rounds":20,"seed":11,
           "engine":"vector"})",
       "c4c00f1d14f86968"},
      {R"({"topology":"torus2d:24x24","workload":"local-density",
           "radius":2,"tracked":4,"checkpoints":4,"agents":60,
           "rounds":40,"seed":5,"engine":"single"})",
       "7ad4aba85b62c693"},
      {R"({"topology":"torus2d:24x24","workload":"local-density",
           "radius":2,"tracked":4,"checkpoints":4,"agents":60,
           "rounds":40,"seed":5,"engine":"sharded","threads":2})",
       "d1e6a2d8514db114"},
      {R"({"topology":"torus2d:24x24","workload":"local-density",
           "radius":2,"tracked":4,"checkpoints":4,"agents":60,
           "rounds":40,"seed":5,"engine":"vector"})",
       "f992dc48a30544a8"},
      {R"({"topology":"expander:d=8,n=512,seed=7","workload":"density",
           "agents":64,"rounds":32,"lazy":0.25,"engine":"vector"})",
       "3486ac594dfc6df5"},
      {R"({"topology":"torus2d:32x32","workload":"density","agents":64,
           "rounds":16,"seed":1,"lazy":0.25,"engine":"sharded",
           "threads":2})",
       "4f1be5e18691c9e2"},
      // The four specs the CI dynamics-smoke job used to diff across
      // the dynamics-ON and dynamics-OFF builds, spelled as antdense_run
      // parses those command lines (a bare --lazy flag reads as 0).
      {R"({"topology":"torus2d:24x24","workload":"density","agents":60,
           "rounds":40,"trials":2,"miss":0.25,"spurious":0.02,
           "engine":"sharded","threads":2})",
       "e050290ec0b6fc2a"},
      {R"({"topology":"expander:d=8,n=512,seed=7","workload":"density",
           "agents":64,"rounds":32,"engine":"vector"})",
       "b4f4a26af7f3a264"},
      {R"({"topology":"ring:600","workload":"property",
           "property-fraction":0.25,"agents":50,"rounds":24,"trials":2,
           "engine":"single"})",
       "d52dc0893ebfe0ae"},
      {R"({"topology":"hypercube:9","workload":"trajectory","tracked":4,
           "checkpoints":5,"agents":32,"rounds":20,"engine":"single"})",
       "9750d6ebb2ecb794"},
      // Lazy trajectories and lazy property fan-outs: the lazy knob and
      // the trial fan-out each reach the workload driver's walk.
      {R"({"topology":"hypercube:10","workload":"trajectory","tracked":4,
           "checkpoints":5,"agents":32,"rounds":20,"seed":11,"lazy":0.25,
           "engine":"single"})",
       "0f245a3902c1b1a9"},
      {R"({"topology":"hypercube:10","workload":"trajectory","tracked":4,
           "checkpoints":5,"agents":32,"rounds":20,"seed":11,"lazy":0.25,
           "engine":"vector"})",
       "5c9be4515e3c94ea"},
      {R"({"topology":"ring:1024","workload":"property","agents":50,
           "rounds":12,"property-fraction":0.25,"seed":9,"lazy":0.25,
           "trials":2,"engine":"single"})",
       "2296b9baf319b76e"},
      {R"({"topology":"ring:1024","workload":"property","agents":50,
           "rounds":12,"property-fraction":0.25,"seed":9,"lazy":0.25,
           "trials":2,"engine":"sharded","threads":2})",
       "586de3f0c6eadb5b"},
  };
  for (const auto& g : goldens) {
    EXPECT_EQ(result_hash(spec_of(g.json)), g.hash)
        << "static result drifted for " << g.json;
  }
}

TEST(DynamicScenarios, DynamicResultsArePinned) {
  const struct {
    const char* json;
    const char* hash;
  } goldens[] = {
      {R"({"topology":"torus2d:16x16","workload":"density","agents":32,
           "rounds":30,"seed":3,"engine":"single",
           "dynamics":"churn:p_edge=0.02,p_fail=0.01"})",
       "95163d231d0c3255"},
      {R"({"topology":"torus2d:16x16","workload":"density","agents":32,
           "rounds":30,"seed":3,"engine":"sharded","threads":2,
           "dynamics":"churn:p_edge=0.02,p_fail=0.01"})",
       "a3423523afb11eeb"},
      {R"({"topology":"ring:256","workload":"density","agents":24,
           "rounds":24,"seed":8,"trials":3,"engine":"single",
           "dynamics":"drift:p_death=0.02,p_birth=0.05"})",
       "6d2dc18e24aa2513"},
      {R"({"topology":"ring:256","workload":"density","agents":24,
           "rounds":24,"seed":8,"trials":3,"engine":"sharded",
           "dynamics":"drift:p_death=0.02,p_birth=0.05"})",
       "8603f6918a5e2f19"},
      {R"({"topology":"hypercube:8","workload":"density","agents":40,
           "rounds":20,"seed":4,"lazy":0.2,"miss":0.1,"engine":"sharded",
           "threads":3,"dynamics":"fade:p0=0.2,step=0.05"})",
       "f9f40fb4c0366c5a"},
      // engine=vector runs the same mutate phase on its own walk stream.
      {R"({"topology":"torus2d:16x16","workload":"density","agents":32,
           "rounds":30,"seed":3,"engine":"vector",
           "dynamics":"churn:p_edge=0.02,p_fail=0.01"})",
       "353f81c74e28e853"},
      // A churned trial fan-out on the vector engine: one fresh model
      // per derived trial seed.
      {R"({"topology":"torus2d:16x16","workload":"density","agents":32,
           "rounds":30,"seed":3,"trials":2,"engine":"vector",
           "dynamics":"churn:p_edge=0.02,p_fail=0.01"})",
       "99439eda9a56d069"},
      // A model combined with every sensing knob pins the per-agent draw
      // order: birth reset, alive skip, rounds observed, dropout, the
      // model's observe transform, miss, spurious.  Drift reborn slots
      // restart mid-walk; fade draws from the observer stream too.
      {R"({"topology":"ring:256","workload":"density","agents":24,
           "rounds":24,"seed":8,"dropout":0.1,"miss":0.2,"spurious":0.05,
           "engine":"single",
           "dynamics":"drift:p_death=0.05,p_birth=0.1"})",
       "579bcd04be38f95b"},
      {R"({"topology":"ring:256","workload":"density","agents":24,
           "rounds":24,"seed":8,"dropout":0.1,"miss":0.2,"spurious":0.05,
           "engine":"vector",
           "dynamics":"drift:p_death=0.05,p_birth=0.1"})",
       "aad19c68b465d6c4"},
      {R"({"topology":"hypercube:8","workload":"density","agents":40,
           "rounds":20,"seed":4,"dropout":0.15,"spurious":0.1,
           "engine":"single","dynamics":"fade:p0=0.2,step=0.05"})",
       "79c8536287cc480c"},
  };
  for (const auto& g : goldens) {
    EXPECT_EQ(result_hash(spec_of(g.json)), g.hash)
        << "dynamic result drifted for " << g.json;
  }
}

// ---------------------------------------------------------------------
// Thread-count invariance under churn
// ---------------------------------------------------------------------

TEST(DynamicScenarios, ShardedChurnIsBitIdenticalForAnyThreadCount) {
  const graph::AnyTopology topo =
      Registry::built_in().make("torus2d:24x24");
  sim::DensityConfig cfg;
  cfg.num_agents = 48;
  cfg.rounds = 30;
  const auto run_with = [&](unsigned threads) {
    sim::ChurnDynamics model(topo, /*p_edge=*/0.05, /*p_fail=*/0.02,
                             /*mean_down=*/6, /*seed=*/4);
    sim::DensityConfig dyn_cfg = cfg;
    dyn_cfg.dynamics = &model;
    return sim::run_density_walk(topo, dyn_cfg, /*seed=*/21,
                                 sim::ShardExec{.threads = threads})
        .estimates();
  };
  const std::vector<double> one = run_with(1);
  EXPECT_EQ(one, run_with(2));
  EXPECT_EQ(one, run_with(8));
  EXPECT_EQ(one.size(), 48u);
}

TEST(DynamicScenarios, ShardedDriftIsBitIdenticalForAnyThreadCount) {
  const graph::AnyTopology topo = Registry::built_in().make("ring:512");
  sim::DensityConfig cfg;
  cfg.num_agents = 40;
  cfg.rounds = 40;
  const auto run_with = [&](unsigned threads) {
    sim::DriftDynamics model(topo, cfg.num_agents, /*p_death=*/0.05,
                             /*p_birth=*/0.08, /*seed=*/2);
    sim::DensityConfig dyn_cfg = cfg;
    dyn_cfg.dynamics = &model;
    return sim::run_density_walk(topo, dyn_cfg, /*seed=*/5,
                                 sim::ShardExec{.threads = threads})
        .estimates();
  };
  const std::vector<double> one = run_with(1);
  EXPECT_EQ(one, run_with(2));
  EXPECT_EQ(one, run_with(8));
}

// ---------------------------------------------------------------------
// Degenerate dynamics reproduce the static walk
// ---------------------------------------------------------------------

TEST(DynamicScenarios, ZeroRateChurnEqualsTheStaticWalk) {
  const graph::AnyTopology topo =
      Registry::built_in().make("torus2d:16x16");
  sim::DensityConfig cfg;
  cfg.num_agents = 32;
  cfg.rounds = 24;

  const std::vector<double> expected =
      sim::run_density_walk(topo, cfg, /*seed=*/13).estimates();
  const auto dynamic_walk = [&](sim::WorldDynamics& model,
                                const auto& exec) {
    sim::DensityConfig dyn_cfg = cfg;
    dyn_cfg.dynamics = &model;
    return sim::run_density_walk(topo, dyn_cfg, 13, exec).estimates();
  };
  sim::ChurnDynamics churn(topo, 0.0, 0.0, 10, 0);
  EXPECT_EQ(dynamic_walk(churn, sim::SingleExec{}), expected)
      << "a dynamic world that never mutates must reproduce the static "
         "stream bit for bit (single engine)";

  const std::vector<double> expected_sharded =
      sim::run_density_walk(topo, cfg, /*seed=*/13,
                            sim::ShardExec{.threads = 2})
          .estimates();
  sim::ChurnDynamics churn2(topo, 0.0, 0.0, 10, 0);
  EXPECT_EQ(dynamic_walk(churn2, sim::ShardExec{.threads = 2}),
            expected_sharded)
      << "and on the sharded engine";

  sim::DriftDynamics still(topo, cfg.num_agents, 0.0, 0.0, 0);
  EXPECT_EQ(dynamic_walk(still, sim::SingleExec{}), expected)
      << "a drift model with no deaths or births is the static walk";
}

// ---------------------------------------------------------------------
// Through the Experiment layer
// ---------------------------------------------------------------------

TEST(DynamicScenarios, ExperimentRunsDynamicDensityOnBothEngines) {
  for (const char* engine : {"single", "sharded", "vector"}) {
    const ScenarioSpec spec = spec_of(
        std::string(R"({"topology":"torus2d:16x16","workload":"density",)") +
        R"("agents":32,"rounds":20,"seed":3,)" +
        R"("dynamics":"churn:p_edge=0.02,p_fail=0.01","engine":")" +
        engine + "\"}");
    const scenario::ScenarioResult result = Experiment(spec).run();
    EXPECT_EQ(result.estimates.size(), 32u);
    for (const double e : result.estimates) {
      EXPECT_GE(e, 0.0);
      EXPECT_TRUE(std::isfinite(e));
    }
    // The canonicalized dynamics spec lands in the result artifact.
    const util::JsonValue doc = Experiment(spec).run().to_json();
    const util::JsonValue* spec_doc = doc.find("spec");
    ASSERT_NE(spec_doc, nullptr);
    const util::JsonValue* dyn = spec_doc->find("dynamics");
    ASSERT_NE(dyn, nullptr);
    EXPECT_EQ(dyn->as_string(),
              "churn:p_edge=0.02,p_fail=0.01,mean_down=10,seed=0");
  }
}

TEST(DynamicScenarios, ExperimentTrialFanOutPoolsDriftEstimates) {
  const ScenarioSpec spec = spec_of(
      R"({"topology":"ring:256","workload":"density","agents":24,
          "rounds":24,"seed":8,"trials":3,
          "dynamics":"drift:p_death=0.02,p_birth=0.05"})");
  const scenario::ScenarioResult result = Experiment(spec).run();
  // Dead slots are excluded per trial, so the pool is at most
  // trials x agents and non-empty with these gentle rates.
  EXPECT_GT(result.estimates.size(), 0u);
  EXPECT_LE(result.estimates.size(), 72u);
  // Determinism across repeat runs (fresh models per trial, derived
  // per-trial seeds).
  const scenario::ScenarioResult again = Experiment(spec).run();
  EXPECT_EQ(result.estimates, again.estimates);
}

// ---------------------------------------------------------------------
// Statistics: error grows with churn
// ---------------------------------------------------------------------

TEST(DynamicScenarios, RelativeErrorGrowsMonotoneIshWithChurn) {
  // Fixed seeds make this deterministic; the margin is what the
  // committed example campaign (examples/campaigns/churn_sweep.json)
  // reports at larger scale.
  const auto rel_error = [](const char* dynamics) {
    const ScenarioSpec spec = spec_of(
        std::string(
            R"({"topology":"torus2d:24x24","workload":"density",)") +
        R"("agents":58,"rounds":48,"seed":17,"trials":4,"dynamics":")" +
        dynamics + "\"}");
    const scenario::ScenarioResult result = Experiment(spec).run();
    double sum = 0.0;
    for (const double e : result.estimates) {
      sum += std::fabs(e - result.true_value) / result.true_value;
    }
    return sum / static_cast<double>(result.estimates.size());
  };
  const double calm = rel_error("churn:p_edge=0,p_fail=0");
  const double stormy =
      rel_error("churn:p_edge=0.2,p_fail=0.1,mean_down=12");
  EXPECT_GT(stormy, calm)
      << "heavy churn must degrade density estimates (calm=" << calm
      << ", stormy=" << stormy << ")";
}

}  // namespace
}  // namespace antdense
