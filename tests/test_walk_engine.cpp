// Differential tests pinning the WalkEngine's compatibility contract:
// the observer-based engine must reproduce the frozen pre-engine loops
// (sim/legacy_reference.hpp) bit-for-bit at fixed seeds in every mode
// except detection-miss, whose stream was deliberately re-goldened when
// the per-partner Bernoulli loop became one binomial draw (that path is
// pinned statistically and at its deterministic edge cases instead).
// Also covers the batched topology API (same generator stream as
// sequential stepping) and the engine-only observers.
#include "sim/walk_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/any_topology.hpp"
#include "graph/biased_torus2d.hpp"
#include "graph/complete.hpp"
#include "graph/explicit_topology.hpp"
#include "graph/generators.hpp"
#include "graph/hypercube.hpp"
#include "graph/ring.hpp"
#include "graph/torus2d.hpp"
#include "graph/torus_kd.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "rng/splitmix64.hpp"
#include "scenario/ball_density.hpp"
#include "sim/density_sim.hpp"
#include "sim/legacy_reference.hpp"
#include "sim/trajectory.hpp"
#include "stats/accumulator.hpp"

namespace antdense::sim {
namespace {

using graph::Hypercube;
using graph::Ring;
using graph::Torus2D;

DensityConfig base_config() {
  DensityConfig cfg;
  cfg.num_agents = 40;
  cfg.rounds = 120;
  return cfg;
}

template <graph::Topology T>
void expect_density_walk_matches_legacy(const T& topo,
                                        const DensityConfig& cfg,
                                        std::uint64_t seed) {
  const DensityResult engine = run_density_walk(topo, cfg, seed);
  const DensityResult reference = legacy::run_density_walk(topo, cfg, seed);
  EXPECT_EQ(engine.collision_counts, reference.collision_counts)
      << "on " << topo.name() << " seed " << seed;
  EXPECT_EQ(engine.rounds, reference.rounds);
  EXPECT_EQ(engine.num_nodes, reference.num_nodes);
}

TEST(EngineEquivalence, DensityWalkMatchesLegacyAcrossTopologies) {
  const DensityConfig cfg = base_config();
  for (std::uint64_t seed : {1ull, 77ull, 0xDEADull}) {
    expect_density_walk_matches_legacy(Ring(512), cfg, seed);
    expect_density_walk_matches_legacy(Torus2D(24, 24), cfg, seed);
    expect_density_walk_matches_legacy(Hypercube(10), cfg, seed);
    expect_density_walk_matches_legacy(graph::TorusKD(3, 8), cfg, seed);
    expect_density_walk_matches_legacy(graph::CompleteGraph(100), cfg, seed);
  }
}

TEST(EngineEquivalence, DensityWalkMatchesLegacyOnExpander) {
  const graph::Graph g = graph::make_random_regular_graph(128, 4, 99);
  const graph::ExplicitTopology topo(g, "rr");
  expect_density_walk_matches_legacy(topo, base_config(), 5);
}

TEST(EngineEquivalence, DensityWalkMatchesLegacyOnFallbackTopology) {
  // BiasedTorus2D has no batched member: the engine's generic fallback
  // must still match the legacy per-agent loop.
  const auto topo = graph::BiasedTorus2D::with_drift(20, 20, 0.1);
  expect_density_walk_matches_legacy(topo, base_config(), 13);
}

TEST(EngineEquivalence, LazyWalkMatchesLegacy) {
  DensityConfig cfg = base_config();
  cfg.lazy_probability = 0.3;
  expect_density_walk_matches_legacy(Torus2D(16, 16), cfg, 21);
  expect_density_walk_matches_legacy(Ring(256), cfg, 22);
}

TEST(EngineEquivalence, SpuriousWalkMatchesLegacy) {
  // Spurious detections stay one Bernoulli draw per agent, so even this
  // noisy mode is stream-identical to the legacy loop.
  DensityConfig cfg = base_config();
  cfg.spurious_collision_probability = 0.2;
  expect_density_walk_matches_legacy(Torus2D(16, 16), cfg, 31);
  expect_density_walk_matches_legacy(Hypercube(9), cfg, 32);
}

TEST(EngineEquivalence, InitialPositionsMatchLegacy) {
  const Torus2D torus(16, 16);
  DensityConfig cfg = base_config();
  std::vector<Torus2D::node_type> start;
  for (std::uint32_t i = 0; i < cfg.num_agents; ++i) {
    start.push_back(Torus2D::pack(i % 4, i / 16));
  }
  const DensityResult engine = run_density_walk(torus, cfg, 41, {}, &start);
  const DensityResult reference =
      legacy::run_density_walk(torus, cfg, 41, &start);
  EXPECT_EQ(engine.collision_counts, reference.collision_counts);
}

TEST(EngineEquivalence, PropertyWalkMatchesLegacy) {
  DensityConfig cfg = base_config();
  std::vector<bool> has_property(cfg.num_agents, false);
  for (std::uint32_t i = 0; i < cfg.num_agents; i += 3) {
    has_property[i] = true;
  }
  for (std::uint64_t seed : {2ull, 1234ull}) {
    for (int topo_case = 0; topo_case < 3; ++topo_case) {
      auto check = [&](const auto& topo) {
        const PropertyResult engine =
            run_property_walk(topo, cfg, has_property, seed);
        const PropertyResult reference =
            legacy::run_property_walk(topo, cfg, has_property, seed);
        EXPECT_EQ(engine.total_counts, reference.total_counts)
            << topo.name() << " seed " << seed;
        EXPECT_EQ(engine.property_counts, reference.property_counts)
            << topo.name() << " seed " << seed;
      };
      if (topo_case == 0) {
        check(Ring(300));
      } else if (topo_case == 1) {
        check(Torus2D(20, 20));
      } else {
        check(Hypercube(10));
      }
    }
  }
}

// --- The re-goldened detection-miss path ------------------------------

TEST(EngineEquivalence, MissPathIsDeterministicInSeed) {
  const Torus2D torus(12, 12);
  DensityConfig cfg = base_config();
  cfg.detection_miss_probability = 0.4;
  const DensityResult a = run_density_walk(torus, cfg, 7);
  const DensityResult b = run_density_walk(torus, cfg, 7);
  EXPECT_EQ(a.collision_counts, b.collision_counts);
}

TEST(EngineEquivalence, MissPathKeepsLegacyAttenuation) {
  // E[d~] = (1-p) d must survive the binomial re-golden.  Pins the
  // distribution the legacy Bernoulli loop realized.
  const Torus2D torus(16, 16);
  DensityConfig cfg;
  cfg.num_agents = 50;
  cfg.rounds = 80;
  cfg.detection_miss_probability = 0.35;
  const double d = 49.0 / 256.0;
  stats::Accumulator engine_acc;
  stats::Accumulator legacy_acc;
  for (std::uint64_t trial = 0; trial < 120; ++trial) {
    for (double e : run_density_walk(torus, cfg, 900 + trial).estimates()) {
      engine_acc.add(e);
    }
    for (double e :
         legacy::run_density_walk(torus, cfg, 900 + trial).estimates()) {
      legacy_acc.add(e);
    }
  }
  EXPECT_NEAR(engine_acc.mean(), 0.65 * d,
              4.0 * engine_acc.standard_error() + 1e-12);
  // Engine and legacy agree with each other within combined noise.
  EXPECT_NEAR(engine_acc.mean(), legacy_acc.mean(),
              4.0 * (engine_acc.standard_error() +
                     legacy_acc.standard_error()));
}

TEST(EngineEquivalence, FullMissStillZeroesCounts) {
  const Torus2D torus(4, 4);
  DensityConfig cfg;
  cfg.num_agents = 10;
  cfg.rounds = 32;
  cfg.detection_miss_probability = 1.0;
  const DensityResult r = run_density_walk(torus, cfg, 9);
  for (std::uint64_t c : r.collision_counts) {
    EXPECT_EQ(c, 0u);
  }
}

// --- Batched neighbor sampling ----------------------------------------

template <graph::Topology T>
void expect_bulk_matches_sequential(const T& topo, std::uint64_t seed) {
  rng::Xoshiro256pp place(seed);
  std::vector<typename T::node_type> start(1000);
  for (auto& p : start) {
    p = topo.random_node(place);
  }

  rng::Xoshiro256pp gen_seq(seed + 1);
  rng::Xoshiro256pp gen_bulk(seed + 1);
  std::vector<typename T::node_type> seq = start;
  std::vector<typename T::node_type> bulk = start;
  for (int step = 0; step < 5; ++step) {
    for (auto& p : seq) {
      p = topo.random_neighbor(p, gen_seq);
    }
    graph::random_neighbors(
        topo, std::span<const typename T::node_type>(bulk),
        std::span<typename T::node_type>(bulk), gen_bulk);
    EXPECT_EQ(seq, bulk) << topo.name() << " diverged at step " << step;
    EXPECT_EQ(gen_seq(), gen_bulk())
        << topo.name() << " consumed a different number of draws";
    // Keep both generators aligned after the probe draw above.
  }
}

TEST(BulkNeighbors, StreamIdenticalToSequentialStepping) {
  expect_bulk_matches_sequential(Ring(1000), 51);
  expect_bulk_matches_sequential(Torus2D(40, 30), 52);
  expect_bulk_matches_sequential(Hypercube(12), 53);
  expect_bulk_matches_sequential(graph::TorusKD(4, 5), 54);
  expect_bulk_matches_sequential(graph::CompleteGraph(333), 55);
  const graph::Graph g = graph::make_random_regular_graph(200, 6, 7);
  expect_bulk_matches_sequential(graph::ExplicitTopology(g, "rr"), 56);
}

TEST(BulkNeighbors, SizeMismatchThrows) {
  const Ring ring(64);
  rng::Xoshiro256pp gen(1);
  std::vector<Ring::node_type> in(8, 0);
  std::vector<Ring::node_type> out(7, 0);
  EXPECT_THROW(graph::random_neighbors(
                   ring, std::span<const Ring::node_type>(in),
                   std::span<Ring::node_type>(out), gen),
               std::invalid_argument);
}

// --- Engine config + observer composition ------------------------------

TEST(WalkConfig, ValidatesFields) {
  WalkConfig cfg;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);  // zero agents
  cfg.num_agents = 2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);  // zero rounds
  cfg.rounds = 1;
  EXPECT_NO_THROW(cfg.validate());
  cfg.lazy_probability = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.lazy_probability = -0.1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(WalkEngine, ComposedObserversMatchSeparateRuns) {
  // Observers that do not draw from the generator can be stacked without
  // changing each other's results: a combined collision+property run
  // must equal the two dedicated drivers at the same stream seed.
  const Torus2D torus(16, 16);
  constexpr std::uint32_t kAgents = 30;
  constexpr std::uint32_t kRounds = 90;
  std::vector<bool> has_property(kAgents, false);
  has_property[0] = has_property[5] = has_property[17] = true;

  WalkConfig cfg;
  cfg.num_agents = kAgents;
  cfg.rounds = kRounds;
  CollisionObserver collisions(kAgents);
  PropertyObserver properties(has_property);
  constexpr std::uint64_t kStreamSeed = 0xABCDEFull;
  run_walk(torus, cfg, kStreamSeed, SingleExec{},
           static_cast<const std::vector<Torus2D::node_type>*>(nullptr),
           collisions, properties);

  CollisionObserver collisions_only(kAgents);
  run_walk(torus, cfg, kStreamSeed, SingleExec{},
           static_cast<const std::vector<Torus2D::node_type>*>(nullptr),
           collisions_only);
  EXPECT_EQ(collisions.counts(), collisions_only.counts());

  PropertyObserver properties_only(has_property);
  run_walk(torus, cfg, kStreamSeed, SingleExec{},
           static_cast<const std::vector<Torus2D::node_type>*>(nullptr),
           properties_only);
  EXPECT_EQ(properties.total_counts(), properties_only.total_counts());
  EXPECT_EQ(properties.property_counts(),
            properties_only.property_counts());

  // total_counts is exactly what the CollisionObserver accumulates.
  EXPECT_EQ(properties.total_counts(), collisions.counts());
}

TEST(WalkEngine, TrajectoryDriverStillMatchesItsContract) {
  // run_trajectory now rides the engine; shape and determinism hold.
  const Torus2D torus(16, 16);
  const TrajectoryResult a = run_trajectory(torus, 12, 4, {5, 20}, 9);
  const TrajectoryResult b = run_trajectory(torus, 12, 4, {5, 20}, 9);
  EXPECT_EQ(a.estimates, b.estimates);
  ASSERT_EQ(a.estimates.size(), 4u);
  for (const auto& row : a.estimates) {
    ASSERT_EQ(row.size(), 2u);
    const double scaled_final = row[1] * 20;
    EXPECT_NEAR(scaled_final, std::round(scaled_final), 1e-9);
  }
}

// Logs every hook with its round and agent range.  Sharded fires fill
// and after_round once per shard from pool workers, hence the mutex.
class HookRecorder {
 public:
  void begin_round(std::uint32_t round) { log('b', round, 0, 0); }
  template <typename View>
  void fill(const View& v) {
    log('f', v.round, v.begin_agent, v.end_agent);
  }
  template <typename View>
  void after_round(const View& v) {
    log('a', v.round, v.begin_agent, v.end_agent);
  }
  void end_round(std::uint32_t round) { log('e', round, 0, 0); }

  /// One token per run of same-kind hooks within a round: begin/end
  /// tokens carry their call count, fill/after_round tokens the agent
  /// ranges they covered, merged ("[0,40)" when they tile it exactly
  /// once).  Scheduling order within a parallel phase drops out.
  std::string normalized() const {
    std::string out;
    std::size_t i = 0;
    while (i < events_.size()) {
      const Event& first = events_[i];
      std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
      std::size_t j = i;
      for (; j < events_.size() && events_[j].hook == first.hook &&
             events_[j].round == first.round;
           ++j) {
        ranges.emplace_back(events_[j].begin, events_[j].end);
      }
      out += std::to_string(first.round) + first.hook;
      if (first.hook == 'f' || first.hook == 'a') {
        std::sort(ranges.begin(), ranges.end());
        std::uint32_t covered = 0;
        bool tiles = true;
        for (const auto& [b, e] : ranges) {
          tiles = tiles && b == covered && e > b;
          covered = e;
        }
        out += tiles ? "[0," + std::to_string(covered) + ")" : "<gap>";
      } else {
        out += "x" + std::to_string(j - i);
      }
      out += ' ';
      i = j;
    }
    return out;
  }

 private:
  struct Event {
    char hook;
    std::uint32_t round;
    std::uint32_t begin;
    std::uint32_t end;
  };

  void log(char hook, std::uint32_t round, std::uint32_t begin,
           std::uint32_t end) {
    const std::lock_guard<std::mutex> lock(mu_);
    events_.push_back({hook, round, begin, end});
  }

  std::mutex mu_;
  std::vector<Event> events_;
};

TEST(WalkEngine, EveryEngineFiresHooksInOneOrder) {
  // Per round: begin_round once, fills covering [0, n) exactly once and
  // all before any after_round, after_rounds covering [0, n) exactly
  // once, end_round once — the same on every engine and thread count.
  const Torus2D torus(12, 12);
  WalkConfig cfg;
  cfg.num_agents = 40;
  cfg.rounds = 3;
  std::string expected;
  for (std::uint32_t r = 1; r <= cfg.rounds; ++r) {
    const std::string round = std::to_string(r);
    expected += round + "bx1 " + round + "f[0,40) " + round + "a[0,40) " +
                round + "ex1 ";
  }
  const auto trace = [&](const auto& exec) {
    HookRecorder recorder;
    run_walk(torus, cfg, 5, exec, nullptr, recorder);
    return recorder.normalized();
  };
  EXPECT_EQ(trace(SingleExec{}), expected);
  EXPECT_EQ(trace(VectorExec{}), expected);
  for (const unsigned threads : {1u, 2u, 8u}) {
    // 8-agent shards: five per round, so the pool really interleaves.
    EXPECT_EQ(trace(ShardExec{.threads = threads, .shard_size = 8}),
              expected)
        << "sharded, threads=" << threads;
  }
}

// Counts end_round calls and asks to stop once it has seen `stop_at`.
struct StopAfter {
  std::uint32_t stop_at = 0;
  std::uint32_t ends = 0;
  void end_round(std::uint32_t) { ++ends; }
  bool done() const { return ends >= stop_at; }
};

TEST(WalkEngine, DoneStopsAfterTheRound) {
  // done() is read after the end_round hooks: the walk ends after round
  // k on every engine, the telemetry tap counts k rounds, and the
  // observers riding along saw a plain k-round walk.
  const Torus2D torus(12, 12);
  WalkConfig cfg;
  cfg.num_agents = 40;
  cfg.rounds = 50;
  constexpr std::uint32_t kStop = 7;
  const auto run = [&](const auto& exec, const std::string& engine) {
    obs::MetricsRegistry metrics;
    obs::Telemetry telemetry{&metrics, nullptr};
    CollisionObserver counts(cfg.num_agents);
    StopAfter stop{kStop};
    {
      const obs::ScopedTelemetry ambient(&telemetry);
      run_walk(torus, cfg, 5, exec, nullptr, counts, stop);
    }
    EXPECT_EQ(stop.ends, kStop) << engine;
    const obs::Labels labels{{"engine", engine}};
    EXPECT_EQ(
        metrics.counter("antdense_engine_rounds_total", labels).value(),
        kStop)
        << engine;
    EXPECT_EQ(
        metrics.counter("antdense_engine_agent_steps_total", labels).value(),
        std::uint64_t{kStop} * cfg.num_agents)
        << engine;
    return counts.take_counts();
  };
  const auto fixed_length = [&](const auto& exec) {
    WalkConfig k_rounds = cfg;
    k_rounds.rounds = kStop;
    CollisionObserver counts(cfg.num_agents);
    run_walk(torus, k_rounds, 5, exec, nullptr, counts);
    return counts.take_counts();
  };
  EXPECT_EQ(run(SingleExec{}, "single"), fixed_length(SingleExec{}));
  EXPECT_EQ(run(VectorExec{}, "vector"), fixed_length(VectorExec{}));
  const ShardExec one{.threads = 1, .shard_size = 8};
  const ShardExec four{.threads = 4, .shard_size = 8};
  EXPECT_EQ(run(one, "sharded"), fixed_length(one));
  EXPECT_EQ(run(four, "sharded"), fixed_length(one));
}

/// The local-density workload's walk: agents over AnyTopology(torus) on
/// the scenario layer's stream tag, with BallDensityObserver recording
/// every agent's L1-ball density at the checkpoints.
std::vector<std::vector<double>> local_density_profile(
    const Torus2D& torus, std::uint32_t num_agents, std::uint32_t radius,
    const std::vector<std::uint32_t>& checkpoints, std::uint64_t seed,
    const std::vector<std::uint64_t>* initial_positions = nullptr) {
  const graph::AnyTopology any(torus);
  scenario::BallDensityObserver balls(any, radius, checkpoints, num_agents);
  WalkConfig cfg;
  cfg.num_agents = num_agents;
  cfg.rounds = checkpoints.back();
  run_walk(any, cfg, rng::derive_seed(seed, 0x10Du), SingleExec{},
           initial_positions, balls);
  return balls.take_densities();
}

TEST(LocalDensityProfile, ClusteredStartRelaxesTowardGlobalDensity) {
  const Torus2D torus(64, 64);
  constexpr std::uint32_t kAgents = 64;
  std::vector<std::uint64_t> clustered;
  for (std::uint32_t i = 0; i < kAgents; ++i) {
    clustered.push_back(Torus2D::pack(i % 8, i / 8));
  }
  const std::vector<std::vector<double>> densities = local_density_profile(
      torus, kAgents, /*radius=*/4, {1, 2048}, 77, &clustered);
  ASSERT_EQ(densities.size(), 2u);
  ASSERT_EQ(densities[0].size(), kAgents);
  auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) {
      s += x;
    }
    return s / static_cast<double>(v.size());
  };
  const double early = mean(densities[0]);
  const double late = mean(densities[1]);
  const double global_density = static_cast<double>(kAgents - 1) /
                                static_cast<double>(torus.num_nodes());
  EXPECT_DOUBLE_EQ(global_density, 63.0 / 4096.0);
  // Packed 8x8 start: experienced local density starts far above the
  // global density and relaxes most of the way back down.
  EXPECT_GT(early, 10.0 * global_density);
  EXPECT_LT(late, early / 3.0);
}

TEST(LocalDensityProfile, DeterministicInSeed) {
  const Torus2D torus(32, 32);
  EXPECT_EQ(local_density_profile(torus, 20, 3, {4, 16}, 5),
            local_density_profile(torus, 20, 3, {4, 16}, 5));
}

}  // namespace
}  // namespace antdense::sim
