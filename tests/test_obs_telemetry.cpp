// The telemetry layer's two load-bearing contracts (obs/telemetry.hpp):
//
//  1. RNG-neutrality — enabling metrics + tracing changes NOTHING about
//     what an experiment computes.  Pinned as byte-identity of the
//     canonical result document across all three engines.
//  2. Exactness — the striped counters lose nothing: sharded-engine
//     totals are exact and invariant across thread counts, and the
//     collision counter reconciles against the observer's own output.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>

#include "graph/ring.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/experiment.hpp"
#include "scenario/spec.hpp"
#include "sim/density_sim.hpp"
#include "sim/walk_engine.hpp"
#include "util/json.hpp"

namespace antdense::obs {
namespace {

scenario::ScenarioSpec small_spec(scenario::EngineMode engine) {
  scenario::ScenarioSpec spec;
  spec.topology = "ring:128";
  spec.workload = scenario::Workload::kDensity;
  spec.agents = 24;
  spec.rounds = 60;
  spec.trials = 2;
  spec.seed = 11;
  spec.engine = engine;
  return spec;
}

/// The result document minus its timing fields — everything that is
/// allowed to depend on the spec, nothing that depends on the clock.
std::string canonical(const scenario::ScenarioSpec& spec) {
  util::JsonValue doc = scenario::Experiment(spec).run().to_json();
  doc.erase("elapsed_seconds");
  doc.erase("elapsed_ns");
  return doc.dump(0);
}

TEST(ObsTelemetry, ResultsAreByteIdenticalWithTelemetryOnAndOff) {
  for (const scenario::EngineMode engine :
       {scenario::EngineMode::kSingleStream, scenario::EngineMode::kSharded,
        scenario::EngineMode::kVector}) {
    const scenario::ScenarioSpec spec = small_spec(engine);
    const std::string baseline = canonical(spec);

    MetricsRegistry metrics;
    TraceRecorder trace;
    Telemetry telemetry{&metrics, &trace};
    std::string instrumented;
    {
      ScopedTelemetry ambient(&telemetry);
      instrumented = canonical(spec);
    }
    EXPECT_EQ(instrumented, baseline)
        << "telemetry must not perturb engine "
        << scenario::engine_mode_name(engine);

    // Guard against a vacuous pass: the instrumented run must actually
    // have hit the engine tap and the trace ring.
    const std::string label = scenario::engine_mode_name(engine);
    EXPECT_EQ(metrics.counter("antdense_engine_rounds_total",
                              {{"engine", label}})
                  .value(),
              static_cast<std::uint64_t>(spec.rounds) * spec.trials);
    EXPECT_GT(trace.event_count(), 0u);
  }
}

TEST(ObsTelemetry, ShardedCountersAreExactAndThreadCountInvariant) {
  const graph::Ring topo(256);
  sim::DensityConfig cfg;
  cfg.num_agents = 100;
  cfg.rounds = 50;

  for (const unsigned threads : {1u, 2u, 8u}) {
    MetricsRegistry metrics;
    Telemetry telemetry{&metrics, nullptr};
    sim::DensityResult result = [&] {
      ScopedTelemetry ambient(&telemetry);
      // shard_size 16 forces multiple shards, so with threads > 1 the
      // striped adds really do come from concurrent pool workers.
      return sim::run_density_walk(
          topo, cfg, /*seed=*/77,
          sim::ShardExec{.threads = threads, .shard_size = 16});
    }();

    const Labels sharded{{"engine", "sharded"}};
    EXPECT_EQ(
        metrics.counter("antdense_engine_agent_steps_total", sharded).value(),
        static_cast<std::uint64_t>(cfg.num_agents) * cfg.rounds)
        << "threads=" << threads;
    EXPECT_EQ(metrics.counter("antdense_engine_rounds_total", sharded).value(),
              cfg.rounds)
        << "threads=" << threads;

    const std::uint64_t observer_total = std::accumulate(
        result.collision_counts.begin(), result.collision_counts.end(),
        std::uint64_t{0});
    EXPECT_EQ(
        metrics.counter("antdense_collisions_observed_total").value(),
        observer_total)
        << "threads=" << threads;
    EXPECT_GT(observer_total, 0u) << "test needs collisions to count";
  }
}

TEST(ObsTelemetry, AmbientPropagatesThroughTrialFanOut) {
  // trials > 1 with threads > 1 runs each trial on a pool worker; the
  // fan-out must re-install the ambient bundle so per-trial engine taps
  // still land in the registry.
  scenario::ScenarioSpec spec = small_spec(scenario::EngineMode::kSingleStream);
  spec.trials = 4;
  spec.threads = 2;

  MetricsRegistry metrics;
  Telemetry telemetry{&metrics, nullptr};
  {
    ScopedTelemetry ambient(&telemetry);
    scenario::Experiment(spec).run();
  }
  EXPECT_EQ(metrics
                .counter("antdense_engine_agent_steps_total",
                         {{"engine", "single"}})
                .value(),
            static_cast<std::uint64_t>(spec.agents) * spec.rounds *
                spec.trials);
}

TEST(ObsTelemetry, ScopedTelemetryInstallsMasksAndRestores) {
  EXPECT_EQ(ambient_telemetry(), nullptr);
  MetricsRegistry metrics;
  Telemetry telemetry{&metrics, nullptr};
  {
    ScopedTelemetry outer(&telemetry);
    EXPECT_EQ(ambient_telemetry(), &telemetry);
    {
      ScopedTelemetry mask(nullptr);
      EXPECT_EQ(ambient_telemetry(), nullptr) << "nullptr masks the scope";
    }
    EXPECT_EQ(ambient_telemetry(), &telemetry);

    // A bundle with no sinks counts as disabled and is not installed.
    Telemetry empty{};
    ScopedTelemetry disabled(&empty);
    EXPECT_EQ(ambient_telemetry(), nullptr);
  }
  EXPECT_EQ(ambient_telemetry(), nullptr);
}

TEST(ObsTelemetry, EngineTapIsInertWithoutAmbientContext) {
  ASSERT_EQ(ambient_telemetry(), nullptr);
  EngineTap tap("single", {"step", "count", "observe"});
  EXPECT_FALSE(tap.active());
  // All probes must be harmless no-ops.
  tap.add_rounds(10);
  tap.add_agent_steps(100);
  { EngineTap::PhaseSpan span(tap, 0); }
}

}  // namespace
}  // namespace antdense::obs
