#include "core/confidence.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/complete.hpp"
#include "graph/torus2d.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"

namespace antdense::core {
namespace {

TEST(EmpiricalBernstein, ValidatesInputs) {
  EXPECT_THROW(empirical_bernstein_interval({1}, 0.1), std::invalid_argument);
  EXPECT_THROW(empirical_bernstein_interval({1, 2}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(empirical_bernstein_interval({1, 2}, 0.1, 0.5),
               std::invalid_argument);
}

TEST(EmpiricalBernstein, CentersOnSampleMean) {
  const std::vector<std::uint32_t> counts{0, 1, 0, 2, 1, 0};
  const AgentInterval iv = empirical_bernstein_interval(counts, 0.1);
  EXPECT_NEAR(iv.estimate, 4.0 / 6.0, 1e-12);
  EXPECT_LE(iv.lower, iv.estimate);
  EXPECT_GE(iv.upper, iv.estimate);
}

TEST(EmpiricalBernstein, ZeroVarianceShrinksToLogTerm) {
  const std::vector<std::uint32_t> counts(100, 2);
  const AgentInterval iv = empirical_bernstein_interval(counts, 0.1);
  EXPECT_NEAR(iv.estimate, 2.0, 1e-12);
  EXPECT_NEAR(iv.upper - iv.estimate, 3.0 * std::log(30.0) / 100.0, 1e-9);
}

TEST(EmpiricalBernstein, InflationWidensInterval) {
  const std::vector<std::uint32_t> counts{0, 1, 2, 0, 1, 3, 0, 0};
  const AgentInterval narrow = empirical_bernstein_interval(counts, 0.1, 1.0);
  const AgentInterval wide = empirical_bernstein_interval(counts, 0.1, 3.0);
  EXPECT_GT(wide.upper - wide.lower, narrow.upper - narrow.lower);
}

TEST(EmpiricalBernstein, LowerBoundClampedAtZero) {
  const std::vector<std::uint32_t> counts{0, 0, 0, 1};
  const AgentInterval iv = empirical_bernstein_interval(counts, 0.1);
  EXPECT_GE(iv.lower, 0.0);
}

TEST(ConfidenceRun, CoverageOnCompleteGraph) {
  // Independent rounds (complete graph): nominal empirical-Bernstein
  // coverage should hold without inflation.  Check >= 1 - 2*delta to
  // leave Monte Carlo margin.
  const graph::CompleteGraph g(1024);
  constexpr double kDelta = 0.1;
  std::uint32_t covered = 0, total = 0;
  for (std::uint64_t trial = 0; trial < 30; ++trial) {
    const auto r =
        estimate_density_with_intervals(g, 103, 300, kDelta, 1.0,
                                        500 + trial);
    for (const auto& iv : r.intervals) {
      covered += iv.contains(r.true_density) ? 1 : 0;
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(covered) / total, 1.0 - 2.0 * kDelta);
}

TEST(ConfidenceRun, TorusNeedsInflationLessThanLog2T) {
  // On the torus the correlated rounds hurt coverage at inflation 1;
  // with the log(2t)-scaled inflation coverage is restored.  Assert the
  // inflated variant covers at least as well and meets the target.
  const graph::Torus2D torus(48, 48);
  constexpr double kDelta = 0.1;
  constexpr std::uint32_t kRounds = 512;
  const double inflation = std::log(2.0 * kRounds) / 2.0;
  std::uint32_t covered_plain = 0, covered_inflated = 0, total = 0;
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    const auto plain = estimate_density_with_intervals(
        torus, 231, kRounds, kDelta, 1.0, 700 + trial);
    const auto inflated = estimate_density_with_intervals(
        torus, 231, kRounds, kDelta, inflation, 700 + trial);
    for (std::size_t i = 0; i < plain.intervals.size(); ++i) {
      covered_plain +=
          plain.intervals[i].contains(plain.true_density) ? 1 : 0;
      covered_inflated +=
          inflated.intervals[i].contains(inflated.true_density) ? 1 : 0;
      ++total;
    }
  }
  EXPECT_GE(covered_inflated, covered_plain);
  EXPECT_GT(static_cast<double>(covered_inflated) / total, 1.0 - kDelta);
}

TEST(ConfidenceRun, DeterministicInSeed) {
  const graph::Torus2D torus(16, 16);
  const auto a = estimate_density_with_intervals(torus, 10, 50, 0.1, 1.0, 9);
  const auto b = estimate_density_with_intervals(torus, 10, 50, 0.1, 1.0, 9);
  ASSERT_EQ(a.intervals.size(), b.intervals.size());
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.intervals[i].estimate, b.intervals[i].estimate);
  }
}

// Pins the walk stream: placement and every step draw, agent by agent,
// from one generator seeded derive_seed(seed, 0xC1).
TEST(ConfidenceRun, ResultHashIsPinned) {
  const graph::Torus2D torus(12, 12);
  const auto r = estimate_density_with_intervals(torus, 40, 64, 0.1, 2.0, 17);
  std::string bytes;
  for (const AgentInterval& in : r.intervals) {
    bytes += util::format_shortest(in.estimate) + ',' +
             util::format_shortest(in.lower) + ',' +
             util::format_shortest(in.upper) + ';';
  }
  EXPECT_EQ(util::hex64(util::fnv1a64(bytes)), "d866086927e1b438");
}

}  // namespace
}  // namespace antdense::core
