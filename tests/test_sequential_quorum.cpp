#include "core/sequential_quorum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "graph/hypercube.hpp"
#include "graph/ring.hpp"
#include "graph/torus2d.hpp"
#include "stats/accumulator.hpp"
#include "util/hash.hpp"

namespace antdense::core {
namespace {

using graph::Hypercube;
using graph::Ring;
using graph::Torus2D;

SequentialQuorumConfig basic_config() {
  SequentialQuorumConfig cfg;
  cfg.threshold = 0.06;
  cfg.gamma = 1.0;
  cfg.delta = 0.1;
  cfg.check_every = 16;
  cfg.max_rounds = 4096;
  return cfg;
}

TEST(SequentialQuorum, Validation) {
  const Torus2D torus(16, 16);
  SequentialQuorumConfig cfg = basic_config();
  EXPECT_THROW(run_sequential_quorum(torus, 1, cfg, 1),
               std::invalid_argument);
  cfg.check_every = 0;
  EXPECT_THROW(run_sequential_quorum(torus, 10, cfg, 1),
               std::invalid_argument);
  cfg = basic_config();
  cfg.threshold = 0.0;
  EXPECT_THROW(run_sequential_quorum(torus, 10, cfg, 1),
               std::invalid_argument);
}

TEST(SequentialQuorum, ResultShape) {
  const Torus2D torus(32, 32);
  const auto r = run_sequential_quorum(torus, 50, basic_config(), 2);
  EXPECT_EQ(r.decisions.size(), 50u);
  EXPECT_EQ(r.decision_round.size(), 50u);
  EXPECT_EQ(r.budget, 4096u);
  for (std::uint32_t round : r.decision_round) {
    EXPECT_GE(round, 1u);
    EXPECT_LE(round, r.budget);
  }
}

TEST(SequentialQuorum, HighDensityDecidesQuorum) {
  // d ~ 0.25 >> threshold*(1+gamma) = 0.12: nearly all agents must
  // declare quorum, and on average well before the budget.
  const Torus2D torus(32, 32);
  const auto r = run_sequential_quorum(torus, 257, basic_config(), 3);
  std::uint32_t quorum = 0;
  stats::Accumulator rounds;
  for (std::size_t i = 0; i < r.decisions.size(); ++i) {
    quorum += r.decisions[i] == QuorumDecision::kQuorum ? 1 : 0;
    rounds.add(r.decision_round[i]);
  }
  EXPECT_GT(quorum, 250u);
  EXPECT_LT(rounds.mean(), 0.5 * r.budget);
}

TEST(SequentialQuorum, LowDensityDecidesNoQuorum) {
  // d ~ 0.015 << threshold = 0.06.
  const Torus2D torus(32, 32);
  const auto r = run_sequential_quorum(torus, 16, basic_config(), 4);
  std::uint32_t no_quorum = 0;
  for (const auto d : r.decisions) {
    no_quorum += d == QuorumDecision::kNoQuorum ? 1 : 0;
  }
  EXPECT_GE(no_quorum, 15u);
}

TEST(SequentialQuorum, FartherDensityDecidesFaster) {
  // Early stopping: a density far above the band resolves sooner than
  // one just above it.
  const Torus2D torus(32, 32);
  auto mean_round = [&](std::uint32_t agents, std::uint64_t seed) {
    const auto r = run_sequential_quorum(torus, agents, basic_config(), seed);
    stats::Accumulator acc;
    for (std::uint32_t round : r.decision_round) {
      acc.add(round);
    }
    return acc.mean();
  };
  const double far = mean_round(308, 5);    // d ~ 0.30
  const double near = mean_round(139, 6);   // d ~ 0.135, just above band
  EXPECT_LT(far, near);
}

TEST(SequentialQuorum, DeterministicInSeed) {
  const Torus2D torus(16, 16);
  SequentialQuorumConfig cfg = basic_config();
  cfg.max_rounds = 512;
  const auto a = run_sequential_quorum(torus, 30, cfg, 7);
  const auto b = run_sequential_quorum(torus, 30, cfg, 7);
  EXPECT_EQ(a.decision_round, b.decision_round);
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(static_cast<int>(a.decisions[i]),
              static_cast<int>(b.decisions[i]));
  }
}

TEST(SequentialQuorum, BudgetDefaultsToTheoremOne) {
  const Torus2D torus(32, 32);
  SequentialQuorumConfig cfg = basic_config();
  cfg.max_rounds = 0;
  const auto r = run_sequential_quorum(torus, 20, cfg, 8);
  const QuorumDetector detector(cfg.threshold, cfg.gamma, cfg.delta);
  const auto expected = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      detector.required_rounds(), torus.num_nodes()));
  EXPECT_EQ(r.budget, expected);
}

/// Appends the bytes of `v` to `out`, for content hashing.
template <typename V>
void put(std::string& out, V v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_result(std::string& out, const SequentialQuorumResult& r) {
  put(out, r.budget);
  put(out, static_cast<std::uint64_t>(r.decisions.size()));
  for (std::size_t i = 0; i < r.decisions.size(); ++i) {
    put(out, static_cast<std::uint8_t>(r.decisions[i]));
    put(out, r.decision_round[i]);
  }
}

// Pins the walk stream (derive_seed(seed, 0x5EB): placement, then every
// step, agent by agent), the check cadence and the stop rule through
// every agent's decision and decision round.  The rows cover an early
// stop on both sides of the band and a run to the budget fallback.
TEST(SequentialQuorum, OutputsArePinned) {
  SequentialQuorumConfig capped = basic_config();
  capped.max_rounds = 1024;
  std::string bytes;
  const auto row = [&](const auto& topo, std::uint32_t agents,
                       const SequentialQuorumConfig& cfg, std::uint64_t seed,
                       bool stops_early) {
    const auto r = run_sequential_quorum(topo, agents, cfg, seed);
    const std::uint32_t last = *std::max_element(r.decision_round.begin(),
                                                  r.decision_round.end());
    EXPECT_EQ(last < r.budget, stops_early) << agents << " agents";
    put_result(bytes, r);
  };
  row(Torus2D(32, 32), 16, basic_config(), 1, true);
  row(Torus2D(32, 32), 257, basic_config(), 2, true);
  row(Torus2D(32, 32), 90, capped, 3, false);
  row(Ring(1024), 90, capped, 7, false);
  row(Hypercube(10), 500, capped, 99, true);
  EXPECT_EQ(util::hex64(util::fnv1a64(bytes)), "9f39772b9f91b136");
}

TEST(SequentialQuorum, ObserverIsThreadCountInvariantOnTheShardedEngine) {
  // The detector as an observer over run_walk's sharded policy: 8-agent
  // shards run after_round concurrently, the decisions stay serial, and
  // the output is byte-identical for one and four threads.
  const Torus2D torus(32, 32);
  const SequentialQuorumConfig cfg = basic_config();
  constexpr std::uint32_t kAgents = 257;
  const auto run = [&](unsigned threads) {
    SequentialQuorumObserver observer(kAgents, cfg);
    sim::run_walk(torus, sim::WalkConfig{.num_agents = kAgents,
                                         .rounds = cfg.max_rounds},
                  11, sim::ShardExec{.threads = threads, .shard_size = 8},
                  nullptr, observer);
    EXPECT_TRUE(observer.done()) << "every agent should decide";
    std::string bytes;
    put_result(bytes, observer.settle(cfg.max_rounds));
    return bytes;
  };
  EXPECT_EQ(run(1), run(4));
}

}  // namespace
}  // namespace antdense::core
