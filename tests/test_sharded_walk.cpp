// Differential tests pinning the sharded engine's determinism contract
// (engine=sharded, sim/walk_engine.hpp): for a fixed (seed, config, shard grain), the
// merged output is bit-identical for ANY thread count — threads ∈
// {1, 2, 8} here — across every topology family and every workload
// observer, including the noise paths that draw from per-shard streams.
// Also covers the ShardPlan layout, the dense counter's serial/concurrent
// parity (the hash counter's is in test_collision_counter.cpp), the
// engine's hash-counter fallback above use_dense_counter's cap,
// statistical sanity of the sharded stream (Algorithm 1 stays unbiased),
// and thread-count invariance at the scenario::Experiment level for
// engine=sharded specs.
#include "sim/walk_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
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
#include "scenario/ball_density.hpp"
#include "scenario/experiment.hpp"
#include "sim/dense_counter.hpp"
#include "sim/density_sim.hpp"
#include "stats/accumulator.hpp"
#include "util/worker_pool.hpp"

namespace antdense::sim {
namespace {

using graph::Hypercube;
using graph::Ring;
using graph::Torus2D;

// Small shards force real multi-shard merges at test sizes.
constexpr std::uint32_t kTestShardSize = 16;
constexpr unsigned kThreadCounts[] = {1, 2, 8};

DensityConfig base_config() {
  DensityConfig cfg;
  cfg.num_agents = 40;
  cfg.rounds = 120;
  return cfg;
}

// --- ShardPlan layout -------------------------------------------------

TEST(ShardPlan, CoversPopulationContiguously) {
  const ShardPlan plan = ShardPlan::make(100, 16);
  EXPECT_EQ(plan.num_shards(), 7u);
  std::uint32_t expected_begin = 0;
  for (std::uint32_t s = 0; s < plan.num_shards(); ++s) {
    EXPECT_EQ(plan.begin(s), expected_begin);
    EXPECT_GT(plan.end(s), plan.begin(s));
    expected_begin = plan.end(s);
  }
  EXPECT_EQ(expected_begin, 100u);
  EXPECT_EQ(plan.end(plan.num_shards() - 1), 100u);
}

TEST(ShardPlan, ExactMultipleAndSingleShard) {
  EXPECT_EQ(ShardPlan::make(64, 16).num_shards(), 4u);
  EXPECT_EQ(ShardPlan::make(15, 16).num_shards(), 1u);
  EXPECT_EQ(ShardPlan::make(1, 4096).num_shards(), 1u);
}

TEST(ShardPlan, RejectsDegenerateInputs) {
  EXPECT_THROW(ShardPlan::make(0, 16), std::invalid_argument);
  EXPECT_THROW(ShardPlan::make(10, 0), std::invalid_argument);
}

// --- The occupancy counters ------------------------------------------

TEST(DenseCounter, SerialAndConcurrentAddsAgree) {
  // Same heavily colliding keys through serial add and through
  // add_concurrent from a pool, over two rounds so the second round's
  // stale-slot claims race too: occupancy must be exact in both.
  constexpr std::uint64_t kKeys = 40;
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> expect(kKeys, 0);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    keys.push_back((i * 7) % 37);
    ++expect[keys.back()];
  }
  DenseCollisionCounter serial(kKeys);
  DenseCollisionCounter parallel(kKeys);
  util::WorkerPool pool(4);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    serial.begin_round();
    parallel.begin_round();
    for (std::uint64_t k : keys) {
      serial.add(k);
    }
    pool.run(keys.size(),
             [&](std::size_t i) { parallel.add_concurrent(keys[i]); });
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      EXPECT_EQ(serial.occupancy(k), expect[k]) << k;
      EXPECT_EQ(parallel.occupancy(k), expect[k]) << k;
    }
  }
}

// --- Thread-count invariance, all topology families -------------------

template <graph::Topology T>
void expect_sharded_threads_agree(const T& topo, const DensityConfig& cfg,
                                  std::uint64_t seed) {
  const DensityResult reference = run_density_walk(
      topo, cfg, seed, ShardExec{.threads = 1, .shard_size = kTestShardSize});
  for (unsigned threads : kThreadCounts) {
    const DensityResult r = run_density_walk(
        topo, cfg, seed,
        ShardExec{.threads = threads, .shard_size = kTestShardSize});
    EXPECT_EQ(r.collision_counts, reference.collision_counts)
        << topo.name() << " diverged at threads=" << threads;
  }
}

TEST(ShardedEquivalence, DensityThreadsAgreeAcrossTopologies) {
  const DensityConfig cfg = base_config();
  for (std::uint64_t seed : {1ull, 0xDEADull}) {
    expect_sharded_threads_agree(Ring(512), cfg, seed);
    expect_sharded_threads_agree(Torus2D(24, 24), cfg, seed);
    expect_sharded_threads_agree(Hypercube(10), cfg, seed);
    expect_sharded_threads_agree(graph::TorusKD(3, 8), cfg, seed);
    expect_sharded_threads_agree(graph::CompleteGraph(100), cfg, seed);
  }
  const graph::Graph g = graph::make_random_regular_graph(128, 4, 99);
  expect_sharded_threads_agree(graph::ExplicitTopology(g, "rr"),
                               base_config(), 5);
}

TEST(ShardedEquivalence, HashCounterFallbackThreadsAgree) {
  // A ring just above the dense counter's cap puts the engine on the
  // hash CollisionCounter, filled through add_concurrent once threads
  // > 1.  Every agent starts within 64 nodes of the top, so the keys sit
  // above the cap and agents share nodes every round.
  const Ring ring((std::uint64_t{1} << 24) + 4096);
  ASSERT_FALSE(use_dense_counter(ring.num_nodes()));
  DensityConfig cfg;
  cfg.num_agents = 256;
  cfg.rounds = 40;
  std::vector<std::uint64_t> start(cfg.num_agents);
  for (std::uint32_t i = 0; i < cfg.num_agents; ++i) {
    start[i] = ring.num_nodes() - 64 + i % 64;
  }
  const auto run = [&](unsigned threads) {
    return run_density_walk(
               ring, cfg, 17,
               ShardExec{.threads = threads, .shard_size = kTestShardSize},
               &start)
        .collision_counts;
  };
  const std::vector<std::uint64_t> reference = run(1);
  for (std::uint64_t c : reference) {
    EXPECT_GT(c, 0u);
  }
  for (unsigned threads : {2u, 4u}) {
    EXPECT_EQ(run(threads), reference) << "diverged at threads=" << threads;
  }
}

TEST(ShardedEquivalence, FallbackTopologyThreadsAgree) {
  // BiasedTorus2D has no batched member: the per-agent fallback path
  // must be just as thread-count-invariant.
  const auto topo = graph::BiasedTorus2D::with_drift(20, 20, 0.1);
  expect_sharded_threads_agree(topo, base_config(), 13);
}

TEST(ShardedEquivalence, NoisePathsThreadsAgree) {
  // Detection-miss and spurious draws come from per-shard streams in
  // observer phase B; they must not depend on scheduling either.
  DensityConfig cfg = base_config();
  cfg.detection_miss_probability = 0.4;
  cfg.spurious_collision_probability = 0.2;
  expect_sharded_threads_agree(Torus2D(16, 16), cfg, 31);
  expect_sharded_threads_agree(Hypercube(9), cfg, 32);
}

TEST(ShardedEquivalence, LazyWalkThreadsAgree) {
  DensityConfig cfg = base_config();
  cfg.lazy_probability = 0.3;
  expect_sharded_threads_agree(Torus2D(16, 16), cfg, 21);
  expect_sharded_threads_agree(Ring(256), cfg, 22);
}

TEST(ShardedEquivalence, InitialPositionsThreadsAgree) {
  const Torus2D torus(16, 16);
  DensityConfig cfg = base_config();
  std::vector<Torus2D::node_type> start;
  for (std::uint32_t i = 0; i < cfg.num_agents; ++i) {
    start.push_back(Torus2D::pack(i % 4, i / 16));
  }
  const DensityResult reference = run_density_walk(
      torus, cfg, 41, ShardExec{.threads = 1, .shard_size = kTestShardSize},
      &start);
  for (unsigned threads : kThreadCounts) {
    const DensityResult r = run_density_walk(
        torus, cfg, 41,
        ShardExec{.threads = threads, .shard_size = kTestShardSize}, &start);
    EXPECT_EQ(r.collision_counts, reference.collision_counts);
  }
}

TEST(ShardedEquivalence, PropertyWalkThreadsAgree) {
  DensityConfig cfg = base_config();
  std::vector<bool> has_property(cfg.num_agents, false);
  for (std::uint32_t i = 0; i < cfg.num_agents; i += 3) {
    has_property[i] = true;
  }
  auto check = [&](const auto& topo) {
    const PropertyResult reference = run_property_walk(
        topo, cfg, has_property, 2,
        ShardExec{.threads = 1, .shard_size = kTestShardSize});
    for (unsigned threads : kThreadCounts) {
      const PropertyResult r = run_property_walk(
          topo, cfg, has_property, 2,
          ShardExec{.threads = threads, .shard_size = kTestShardSize});
      EXPECT_EQ(r.total_counts, reference.total_counts)
          << topo.name() << " threads=" << threads;
      EXPECT_EQ(r.property_counts, reference.property_counts)
          << topo.name() << " threads=" << threads;
    }
  };
  check(Ring(300));
  check(Torus2D(20, 20));
  check(Hypercube(10));
}

TEST(ShardedEquivalence, TrajectoryThreadsAgree) {
  const Torus2D torus(16, 16);
  WalkConfig cfg;
  cfg.num_agents = 40;
  cfg.rounds = 60;
  auto run_at = [&](unsigned threads) {
    CollisionObserver counts(cfg.num_agents);
    TrajectoryObserver trajectory(counts, 6, {5, 20, 60});
    run_walk(torus, cfg, 0x7124u,
             ShardExec{.threads = threads, .shard_size = kTestShardSize},
             static_cast<const std::vector<Torus2D::node_type>*>(nullptr),
             counts, trajectory);
    return trajectory.take_estimates();
  };
  const auto reference = run_at(1);
  ASSERT_EQ(reference.size(), 6u);
  ASSERT_EQ(reference[0].size(), 3u);
  EXPECT_EQ(run_at(2), reference);
  EXPECT_EQ(run_at(8), reference);
}

TEST(ShardedEquivalence, BallDensityThreadsAgree) {
  const graph::AnyTopology any(Torus2D(18, 18));
  WalkConfig cfg;
  cfg.num_agents = 48;
  cfg.rounds = 24;
  auto run_at = [&](unsigned threads) {
    scenario::BallDensityObserver balls(any, 2, {1, 8, 24}, cfg.num_agents);
    run_walk(any, cfg, 0x10Du,
             ShardExec{.threads = threads, .shard_size = kTestShardSize},
             static_cast<const std::vector<std::uint64_t>*>(nullptr), balls);
    return balls.take_densities();
  };
  const auto reference = run_at(1);
  ASSERT_EQ(reference.size(), 3u);
  EXPECT_EQ(run_at(2), reference);
  EXPECT_EQ(run_at(8), reference);
}

// --- Contract edges ---------------------------------------------------

TEST(ShardedContract, ShardSizeIsPartOfTheStream) {
  // Regrouping agents into different shards reassigns streams, so the
  // grain is identity-bearing — document it by pinning the difference.
  const Torus2D torus(24, 24);
  const DensityConfig cfg = base_config();
  const DensityResult a = run_density_walk(
      torus, cfg, 7, ShardExec{.threads = 1, .shard_size = 16});
  const DensityResult b = run_density_walk(
      torus, cfg, 7, ShardExec{.threads = 1, .shard_size = 8});
  EXPECT_NE(a.collision_counts, b.collision_counts);
}

TEST(ShardedContract, DistinctFromSingleStreamEngine) {
  // The sharded engine deliberately defines its own stream: even a
  // single-shard walk is seeded through derive_stream, not the root.
  const Torus2D torus(24, 24);
  const DensityConfig cfg = base_config();
  const DensityResult sharded = run_density_walk(
      torus, cfg, 7, ShardExec{.threads = 1});
  const DensityResult single = run_density_walk(torus, cfg, 7);
  EXPECT_NE(sharded.collision_counts, single.collision_counts);
}

TEST(ShardedContract, DeterministicAcrossRepeatedRuns) {
  const Hypercube cube(10);
  const DensityConfig cfg = base_config();
  const ShardExec exec{.threads = 8, .shard_size = kTestShardSize};
  const DensityResult a = run_density_walk(cube, cfg, 9, exec);
  const DensityResult b = run_density_walk(cube, cfg, 9, exec);
  EXPECT_EQ(a.collision_counts, b.collision_counts);
}

TEST(ShardedStatistics, DensityEstimatesStayUnbiased) {
  // Theorem 1's unbiasedness (E[c/t] = d) must survive the stream
  // change: pooled sharded estimates match the true density within 4
  // standard errors, same envelope as the single-stream regression.
  const Torus2D torus(16, 16);
  DensityConfig cfg;
  cfg.num_agents = 50;
  cfg.rounds = 80;
  const double d = 49.0 / 256.0;
  stats::Accumulator acc;
  for (std::uint64_t trial = 0; trial < 120; ++trial) {
    const DensityResult r = run_density_walk(
        torus, cfg, 900 + trial,
        ShardExec{.threads = 1, .shard_size = kTestShardSize});
    for (double e : r.estimates()) {
      acc.add(e);
    }
  }
  EXPECT_NEAR(acc.mean(), d, 4.0 * acc.standard_error() + 1e-12);
}

// --- Experiment-level invariance (all workloads, all families) --------

TEST(ShardedExperiment, AllWorkloadsAllFamiliesThreadInvariant) {
  // engine=sharded through the scenario facade: the emitted artifact
  // must be byte-identical for threads ∈ {1, 2, 8} on every topology
  // family x workload cell (trials > 1 for the pooling workloads so the
  // trial fan-out path is covered too).
  const char* topologies[] = {"torus2d:12x12",  "ring:200",
                              "hypercube:8",    "toruskd:3x6",
                              "complete:128",
                              "expander:d=8,n=128,seed=7"};
  const scenario::Workload workloads[] = {
      scenario::Workload::kDensity, scenario::Workload::kProperty,
      scenario::Workload::kTrajectory, scenario::Workload::kLocalDensity};
  for (const char* topology : topologies) {
    for (const scenario::Workload workload : workloads) {
      SCOPED_TRACE(std::string(topology) + " / " +
                   scenario::workload_name(workload));
      scenario::ScenarioSpec spec;
      spec.topology = topology;
      spec.workload = workload;
      spec.engine = scenario::EngineMode::kSharded;
      spec.agents = 24;
      spec.rounds = 20;
      spec.checkpoints = 4;
      const bool pooled = workload == scenario::Workload::kDensity ||
                          workload == scenario::Workload::kProperty;
      spec.trials = pooled ? 2 : 1;
      std::string reference;
      for (unsigned threads : kThreadCounts) {
        spec.threads = threads;
        scenario::ScenarioResult result =
            scenario::Experiment(spec).run();
        result.elapsed_seconds = 0.0;  // the wall-clock fields
        result.elapsed_ns = 0;
        const std::string dump = result.to_json().dump(0);
        if (reference.empty()) {
          reference = dump;
        } else {
          // The spec echoes `threads`, which legitimately differs.
          scenario::ScenarioSpec canonical = result.spec;
          canonical.threads = kThreadCounts[0];
          result.spec = canonical;
          EXPECT_EQ(result.to_json().dump(0), reference)
              << "diverged at threads=" << threads;
        }
      }
    }
  }
}

}  // namespace
}  // namespace antdense::sim
