// Statistical regression suite guarding the WalkEngine against silent
// bias or variance blow-ups from future optimizations.  Fixed seeds make
// every run identical, so these are regression tests, not flaky
// statistics: the tolerances are generous versions of what Theorem 1
// (arXiv:1603.02981) promises, measured once against the current engine.
//
//   - Mean of pooled estimates within 3 standard errors of d
//     (Corollary 3 unbiasedness) on torus2d and hypercube.
//   - Measured ε at 90% confidence below a generous multiple of the
//     Theorem 1 scaling (relative error bound).
//   - Error shrinks when rounds quadruple (the 1/sqrt(t)-ish rate, with
//     slack for the log factor).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/bounds.hpp"
#include "graph/complete.hpp"
#include "graph/explicit_topology.hpp"
#include "graph/generators.hpp"
#include "graph/hypercube.hpp"
#include "graph/ring.hpp"
#include "graph/torus2d.hpp"
#include "graph/torus_kd.hpp"
#include "sim/density_sim.hpp"
#include "sim/trial_runner.hpp"
#include "stats/accumulator.hpp"
#include "stats/concentration.hpp"

namespace antdense::sim {
namespace {

using graph::Hypercube;
using graph::Torus2D;

constexpr std::uint64_t kSeed = 0x7E011;  // fixed: regression, not stats
constexpr std::uint32_t kTrials = 40;
constexpr double kConfidence = 0.9;

struct Measured {
  double mean = 0.0;
  double standard_error = 0.0;
  double epsilon90 = 0.0;  // measured ε at 90% confidence
};

template <graph::Topology T>
Measured measure(const T& topo, std::uint32_t num_agents,
                 std::uint32_t rounds, double density) {
  DensityConfig cfg;
  cfg.num_agents = num_agents;
  cfg.rounds = rounds;
  const std::vector<double> estimates =
      collect_all_agent_estimates(topo, cfg, kSeed, kTrials, 2);
  stats::Accumulator acc;
  for (double e : estimates) {
    acc.add(e);
  }
  Measured m;
  m.mean = acc.mean();
  m.standard_error = acc.standard_error();
  m.epsilon90 = stats::epsilon_at_confidence(estimates, density, kConfidence);
  return m;
}

TEST(Theorem1Regression, Torus2DUnbiasedWithinThreeStandardErrors) {
  const Torus2D torus(32, 32);
  constexpr std::uint32_t kAgents = 103;  // d ~ 0.1
  const double d = 102.0 / 1024.0;
  const Measured m = measure(torus, kAgents, 1024, d);
  EXPECT_NEAR(m.mean, d, 3.0 * m.standard_error)
      << "mean " << m.mean << " vs d " << d << " (se " << m.standard_error
      << ")";
}

TEST(Theorem1Regression, HypercubeUnbiasedWithinThreeStandardErrors) {
  const Hypercube cube(10);  // A = 1024
  constexpr std::uint32_t kAgents = 103;
  const double d = 102.0 / 1024.0;
  const Measured m = measure(cube, kAgents, 1024, d);
  EXPECT_NEAR(m.mean, d, 3.0 * m.standard_error);
}

// Corollary 3 on the remaining regular families, same tolerance.
TEST(Theorem1Regression, UnbiasedOnEveryRegularFamily) {
  const auto check = [](const auto& topo, std::uint32_t agents) {
    const double d = (agents - 1.0) / static_cast<double>(topo.num_nodes());
    const Measured m = measure(topo, agents, 1024, d);
    EXPECT_NEAR(m.mean, d, 3.0 * m.standard_error) << topo.name();
  };
  check(graph::Ring(2048), 103);
  check(graph::TorusKD(3, 13), 111);
  check(graph::CompleteGraph(2048), 103);
  const graph::Graph rr = graph::make_random_regular_graph(2048, 8, 0xE2F);
  check(graph::ExplicitTopology(rr, "random-regular"), 103);
}

TEST(Theorem1Regression, Torus2DRelativeErrorWithinTheorem1Envelope) {
  // Theorem 1 with c1 = 1 gives the shape; allow a generous 3x envelope
  // so only a real regression (biased stepping, broken counting, bad
  // batching) trips it, not constant-factor drift.
  const Torus2D torus(32, 32);
  constexpr std::uint32_t kAgents = 103;
  constexpr std::uint32_t kRounds = 1024;
  const double d = 102.0 / 1024.0;
  const Measured m = measure(torus, kAgents, kRounds, d);
  const double bound =
      core::theorem1_epsilon(kRounds, d, 1.0 - kConfidence, 1.0);
  EXPECT_LT(m.epsilon90, 3.0 * bound)
      << "measured eps " << m.epsilon90 << " vs bound " << bound;
  // And it is a real estimate, not a degenerate zero.
  EXPECT_GT(m.epsilon90, 0.0);
}

TEST(Theorem1Regression, HypercubeRelativeErrorMatchesIndependentSampling) {
  // Lemma 25: hypercube local mixing matches independent sampling, so the
  // Chernoff-style envelope sqrt(3 log(1/δ) / (t d)) with generous slack
  // must hold.
  const Hypercube cube(10);
  constexpr std::uint32_t kAgents = 103;
  constexpr std::uint32_t kRounds = 1024;
  const double d = 102.0 / 1024.0;
  const Measured m = measure(cube, kAgents, kRounds, d);
  const double chernoff = std::sqrt(
      3.0 * std::log(1.0 / (1.0 - kConfidence)) / (kRounds * d));
  EXPECT_LT(m.epsilon90, 3.0 * chernoff);
}

TEST(Theorem1Regression, ErrorShrinksWhenRoundsQuadruple) {
  // ε ~ t^{-1/2} up to log factors: quadrupling t must cut the measured
  // ε at least in half-ish (we require a 1.4x reduction — generous).
  const Torus2D torus(32, 32);
  constexpr std::uint32_t kAgents = 103;
  const double d = 102.0 / 1024.0;
  const Measured coarse = measure(torus, kAgents, 256, d);
  const Measured fine = measure(torus, kAgents, 1024, d);
  EXPECT_LT(fine.epsilon90, coarse.epsilon90 / 1.4)
      << "eps(256) = " << coarse.epsilon90
      << ", eps(1024) = " << fine.epsilon90;
}

TEST(Theorem1Regression, SingleAgentEstimatesUnbiasedToo) {
  // The fully independent per-trial discipline (agent 0 only) must agree
  // with d as well — catches bias that pooling could mask.
  const Torus2D torus(32, 32);
  DensityConfig cfg;
  cfg.num_agents = 103;
  cfg.rounds = 1024;
  const double d = 102.0 / 1024.0;
  const std::vector<double> estimates =
      collect_single_agent_estimates(torus, cfg, kSeed, 160, 2);
  stats::Accumulator acc;
  for (double e : estimates) {
    acc.add(e);
  }
  EXPECT_NEAR(acc.mean(), d, 3.0 * acc.standard_error());
}

}  // namespace
}  // namespace antdense::sim
