// The paper's checkable claims as one table of verdicts.
//
// Paper: Musco, Su & Lynch, "Ant-Inspired Density Estimation via Random
// Walks" (PODC 2016); lemma and theorem numbers follow the full version,
// arXiv:1603.02981.
//
// Each row names an experiment (E1-E16, E-ABL), the paper result it
// checks, a statistic, a bound on it with a tolerance, and a one-line
// reason; its evaluator returns the measured value and the expected one.
// Row rules:
//   - Expected values come from the paper's formulas (core/bounds.hpp),
//     not from a run.  Slopes include the theorem's log factor: Theorem
//     1's epsilon ~ log(2t)/sqrt(td) has local slope -1/2 + 1/ln(2t), so
//     the expected slope is the least-squares slope of the formula over
//     the same points the measurement uses.  Envelopes use constant 1
//     (c1 = 1, Theorem 21's c = 1) and Theorem 27 at delta = 0.5.
//   - An ordering claim is stated as the comparison itself.
//   - Seeds are fixed, so every verdict is deterministic.  A failing row
//     is a finding about the library or the claim; its tolerance is not
//     retuned to make it pass.
// Claims that an existing suite already asserts are not repeated here:
// Kac's formula and the ring's heavy return tail (test_return_time),
// unbiasedness on every regular family (test_theorem1_regression), and
// zero odd-step equalization (test_equalization).
//
// Every row prints its measured value next to the expected one; run
// `ctest -R test_paper_claims -V` to see the table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/bounds.hpp"
#include "core/independent_sampling.hpp"
#include "core/property_frequency.hpp"
#include "graph/biased_torus2d.hpp"
#include "graph/complete.hpp"
#include "graph/explicit_topology.hpp"
#include "graph/generators.hpp"
#include "graph/hypercube.hpp"
#include "graph/ring.hpp"
#include "graph/torus2d.hpp"
#include "graph/torus_kd.hpp"
#include "netsize/degree_estimator.hpp"
#include "netsize/katzir.hpp"
#include "netsize/size_estimator.hpp"
#include "rng/splitmix64.hpp"
#include "sensor/field.hpp"
#include "sensor/token_sampling.hpp"
#include "sim/density_sim.hpp"
#include "sim/trajectory.hpp"
#include "sim/trial_runner.hpp"
#include "spectral/walk_matrix.hpp"
#include "stats/accumulator.hpp"
#include "stats/concentration.hpp"
#include "stats/moments.hpp"
#include "stats/quantile.hpp"
#include "stats/regression.hpp"
#include "util/parallel.hpp"
#include "walk/equalization.hpp"
#include "walk/recollision.hpp"
#include "walk/visits.hpp"

namespace antdense {
namespace {

using Series = std::vector<double>;

constexpr double kDelta = 0.1;  // every accuracy sweep reports eps at 90%
constexpr double kInf = std::numeric_limits<double>::infinity();

Series doublings(double start, double stop) {
  Series out;
  for (double v = start; v <= stop; v *= 2) {
    out.push_back(v);
  }
  return out;
}

std::uint32_t u32(double v) { return static_cast<std::uint32_t>(v); }

double log2t(double t) { return std::log(2.0 * t); }

double slope(const Series& x, const Series& y) {
  return stats::log_log_fit(x, y).slope;
}

/// Least-squares log-log slope of the formula f over the points xs.
double formula_slope(const Series& xs,
                     const std::function<double(double)>& f) {
  Series ys;
  for (double x : xs) {
    ys.push_back(f(x));
  }
  return slope(xs, ys);
}

double max_of(const Series& v) { return *std::max_element(v.begin(), v.end()); }
double min_of(const Series& v) { return *std::min_element(v.begin(), v.end()); }

/// max/min of a positive series: 1 means perfectly level.
double spread(const Series& v) { return max_of(v) / min_of(v); }

/// Element-wise a[i] / b[i].
Series ratios(const Series& a, const Series& b) {
  Series out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    out.push_back(a[i] / b[i]);
  }
  return out;
}

/// The value in `values` farthest from `expected`.
double farthest(const Series& values, double expected) {
  return *std::max_element(values.begin(), values.end(),
                           [&](double a, double b) {
                             return std::fabs(a - expected) <
                                    std::fabs(b - expected);
                           });
}

/// Measured eps at 90% confidence of Algorithm 1, pooling every agent of
/// every trial.
template <graph::Topology T>
double epsilon90(const T& topo, std::uint32_t agents, double t,
                 std::uint64_t seed, std::uint32_t trials) {
  sim::DensityConfig cfg;
  cfg.num_agents = agents;
  cfg.rounds = u32(t);
  const double d = (agents - 1.0) / static_cast<double>(topo.num_nodes());
  return stats::epsilon_at_confidence(
      sim::collect_all_agent_estimates(topo, cfg, seed, trials), d,
      1.0 - kDelta);
}

/// eps90 of `topo` at each t (410 agents, d ~ 0.1, 8 trials).
template <graph::Topology T>
Series eps_sweep(const T& topo, const Series& ts, std::uint64_t seed) {
  Series out;
  for (double t : ts) {
    out.push_back(epsilon90(topo, 410, t, seed, 8));
  }
  return out;
}

/// Worst eps ratio of `topo` over the complete graph of its size.
template <graph::Topology T>
double worst_ratio_to_complete(const T& topo, double t_max, std::uint64_t seed,
                               std::uint64_t complete_seed) {
  const Series ts = doublings(128, t_max);
  return max_of(
      ratios(eps_sweep(topo, ts, seed),
             eps_sweep(graph::CompleteGraph(topo.num_nodes()), ts,
                       complete_seed)));
}

/// Pooled mean of Algorithm 1's estimates over 8 trials.
template <graph::Topology T>
double mean_estimate(const T& topo, const sim::DensityConfig& cfg,
                     std::uint64_t seed) {
  stats::Accumulator acc;
  for (double e : sim::collect_all_agent_estimates(topo, cfg, seed, 8)) {
    acc.add(e);
  }
  return acc.mean();
}

template <graph::Topology T>
Series recollision_at(const T& topo, const Series& ms, std::uint64_t trials,
                      std::uint64_t seed) {
  const auto curve =
      walk::measure_recollision_curve(topo, u32(ms.back()), trials, seed);
  Series p;
  for (double m : ms) {
    p.push_back(curve.probability[u32(m)]);
  }
  return p;
}

/// {measured, expected} slope of a re-collision curve against the bound
/// beta, over the rounds with a nonzero estimate.
template <graph::Topology T>
std::pair<double, double> recollision_slope(
    const T& topo, const Series& ms, std::uint64_t trials, std::uint64_t seed,
    const std::function<double(double)>& beta) {
  const Series p = recollision_at(topo, ms, trials, seed);
  Series x;
  Series y;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (p[i] > 0.0) {
      x.push_back(ms[i]);
      y.push_back(p[i]);
    }
  }
  return {slope(x, y), formula_slope(x, beta)};
}

/// Implied moment constants w = (E[c^k]/k!)^{1/k} / base(t), k = 1..4
/// for each t in turn.
Series implied_w(const Series& ts,
                 const std::function<Series(std::uint32_t)>& counts_at,
                 const std::function<double(double)>& base) {
  Series w;
  for (double t : ts) {
    const Series counts = counts_at(u32(t));
    double factorial = 1.0;
    for (int k = 1; k <= 4; ++k) {
      factorial *= k;
      w.push_back(std::pow(stats::raw_moment(counts, k) / factorial, 1.0 / k) /
                  base(t));
    }
  }
  return w;
}

double theorem1_slope(const Series& ts) {
  return formula_slope(ts, [](double t) {
    return core::theorem1_epsilon(u32(t), 0.1, kDelta);
  });
}

/// The measured value and what the paper's formula expects (for a
/// bound, the bound).
struct Verdict {
  double measured = 0.0;
  double expected = 0.0;
};

// ---------------------------------------------------------------------------
// Sweeps shared by several rows, each measured once.
// ---------------------------------------------------------------------------

struct AccuracySweep {
  Series ts;
  Series densities;
  std::vector<Series> eps;  // eps[series][t]
};

/// E1: Theorem 1 on the 64x64 torus at d = 0.05 and d = 0.2.
const AccuracySweep& e1() {
  static const AccuracySweep s = [] {
    const graph::Torus2D torus(64, 64);
    const double area = static_cast<double>(torus.num_nodes());
    AccuracySweep out{doublings(128, 4096), {}, {}};
    for (double d_target : {0.05, 0.2}) {
      const auto agents = static_cast<std::uint32_t>(d_target * area) + 1;
      out.densities.push_back((agents - 1) / area);
      Series eps;
      for (double t : out.ts) {
        eps.push_back(epsilon90(torus, agents, t, 0xE1 + u32(t), 6));
      }
      out.eps.push_back(eps);
    }
    return out;
  }();
  return s;
}

/// E3: P[re-collision at m], 256x256 torus, m = 1, 2, 4, ..., 256.
const Series& e3() {
  static const Series p = recollision_at(graph::Torus2D(256, 256),
                                         doublings(1, 256), 300000, 0xE3);
  return p;
}

struct Visits {
  Series ts;
  Series p_visit;    // P[visit the fixed node]
  Series given_any;  // E[visits | any]
};

/// E4: visits to the center of a 64x64 torus, t = 128..2048.
const Visits& e4() {
  static const Visits v = [] {
    const graph::Torus2D torus(64, 64);
    Visits out;
    for (double t : doublings(128, 2048)) {
      const auto stats = walk::measure_visits(
          torus, graph::Torus2D::pack(32, 32), u32(t), 60000, 0xE4B + u32(t));
      out.ts.push_back(t);
      out.p_visit.push_back(stats.p_visit);
      out.given_any.push_back(stats.mean_visits_given_any);
    }
    return out;
  }();
  return v;
}

/// E6: eps90 on ring 4096 (eps[0]) and torus 64x64 (eps[1]),
/// t = 256..16384.
const AccuracySweep& e6() {
  static const AccuracySweep s = [] {
    const Series ts = doublings(256, 16384);
    return AccuracySweep{ts,
                         {},
                         {eps_sweep(graph::Ring(4096), ts, 0xE6B),
                          eps_sweep(graph::Torus2D(64, 64), ts, 0xE6C)}};
  }();
  return s;
}

struct Curve {
  double lambda = 0.0;  // measured second eigenvalue magnitude (E8)
  std::uint64_t area = 0;
  Series ms;
  Series p;
};

/// E8: re-collision on random 4- and 8-regular graphs of 4096 nodes.
const std::vector<Curve>& e8() {
  static const std::vector<Curve> curves = [] {
    std::vector<Curve> out;
    for (std::uint32_t degree : {4u, 8u}) {
      const graph::Graph g =
          graph::make_random_regular_graph(4096, degree, 0xE8 + degree);
      Curve c{spectral::second_eigenvalue_magnitude(g), 4096, {}, {}};
      for (double m = 1; m <= 24; m = m < 8 ? m + 1 : m * 2) {
        c.ms.push_back(m);
      }
      c.p = recollision_at(graph::ExplicitTopology(g, "random-regular"), c.ms,
                           400000, 0xE8A + degree);
      out.push_back(c);
    }
    return out;
  }();
  return curves;
}

/// E9: re-collision on the 12- and 16-dimensional hypercubes, m = 1..48.
const std::vector<Curve>& e9() {
  static const std::vector<Curve> curves = [] {
    std::vector<Curve> out;
    for (std::uint32_t k : {12u, 16u}) {
      const graph::Hypercube cube(k);
      Curve c{0.0, cube.num_nodes(), {}, {}};
      for (double m = 1; m <= 48; ++m) {
        c.ms.push_back(m);
      }
      c.p = recollision_at(cube, c.ms, 400000, 0xE9A + k);
      out.push_back(c);
    }
    return out;
  }();
  return curves;
}

struct SizeSweep {
  Series budgets;  // n^2 t
  Series errors;   // median relative error of Algorithm 2
  Series theory;   // Theorem 27 eps at delta = 0.5
};

SizeSweep size_sweep(const graph::Graph& g, double b_of_t,
                     std::uint64_t seed) {
  constexpr std::uint32_t kTrials = 60;
  const double truth = g.num_vertices();
  SizeSweep s;
  const std::pair<std::uint32_t, std::uint32_t> configs[] = {
      {16, 16}, {16, 64}, {32, 64}, {64, 64}, {64, 256}, {128, 256}};
  for (const auto& [n, t] : configs) {
    Series errs(kTrials, kInf);
    util::parallel_for(kTrials, [&](std::size_t trial) {
      netsize::SizeEstimationConfig cfg;
      cfg.num_walks = n;
      cfg.rounds = t;
      cfg.start_stationary = true;
      const auto r = netsize::estimate_network_size(
          g, cfg, rng::derive_seed(seed, trial));
      if (r.saw_collision) {
        errs[trial] = std::fabs(r.size_estimate - truth) / truth;
      }
    });
    s.budgets.push_back(static_cast<double>(n) * n * t);
    s.errors.push_back(stats::median(errs));
    s.theory.push_back(core::theorem27_epsilon(
        n, t, 0.5, b_of_t, g.average_degree(), g.num_vertices()));
  }
  return s;
}

/// E10: Algorithm 2 from stationary starts on the 3-D torus 10^3 and a
/// random 8-regular graph of 1000 nodes.
const std::vector<SizeSweep>& e10() {
  static const std::vector<SizeSweep> sweeps = [] {
    const graph::Graph torus3 = graph::make_torus_kd_graph(3, 10);
    const graph::Graph rr = graph::make_random_regular_graph(1000, 8, 0x10B);
    const double lambda = spectral::second_eigenvalue_magnitude(rr);
    return std::vector<SizeSweep>{
        size_sweep(torus3, core::b_torus_kd(256, 3, 1000), 0x10A),
        size_sweep(rr, core::b_expander(256, lambda, 1000), 0x10C)};
  }();
  return sweeps;
}

/// E11: median relative error of Algorithm 3 at n = 64..4096 samples.
Series degree_errors(const graph::Graph& g, std::uint64_t seed) {
  const double truth = g.average_degree();
  Series out;
  for (double n : doublings(64, 4096)) {
    Series errs;
    for (std::uint32_t trial = 0; trial < 80; ++trial) {
      const auto r = netsize::estimate_average_degree(
          g, u32(n), true, 0, 0, rng::derive_seed(seed, u32(n), trial));
      errs.push_back(std::fabs(r.average_degree_estimate - truth) / truth);
    }
    out.push_back(stats::median(errs));
  }
  return out;
}

struct BurnIn {
  graph::Graph g;
  double lambda = 0.0;
  std::uint32_t budget = 0;  // the paper's M = log(|E|/delta)/(1-lambda)
};

/// E12: a Barabasi-Albert graph of 500 nodes.
const BurnIn& e12() {
  static const BurnIn b = [] {
    BurnIn out{graph::make_barabasi_albert_graph(500, 3, 0x12A), 0.0, 0};
    out.lambda = spectral::second_eigenvalue_magnitude(out.g);
    out.budget = static_cast<std::uint32_t>(
        core::burn_in_rounds(out.g.num_edges(), kDelta, out.lambda));
    return out;
  }();
  return b;
}

/// Median Algorithm 2 size estimate over 60 seed-vertex crawls with the
/// given burn-in, as a fraction of the true size.
double median_size_fraction(std::uint32_t burn_in) {
  const BurnIn& b = e12();
  Series estimates;
  for (std::uint32_t trial = 0; trial < 60; ++trial) {
    netsize::SizeEstimationConfig cfg;
    cfg.num_walks = 48;
    cfg.rounds = 48;
    cfg.burn_in = burn_in;
    cfg.seed_vertex = 0;
    const auto r = netsize::estimate_network_size(
        b.g, cfg, rng::derive_seed(0x12B, burn_in, trial));
    if (r.saw_collision) {
      estimates.push_back(r.size_estimate);
    }
  }
  return stats::median(estimates) / b.g.num_vertices();
}

/// E13 on a 512x512 torus (sqrt(A) > t: Algorithm 4's walker columns
/// never wrap) with 26215 agents (d ~ 0.1): eps[0] Algorithm 1,
/// eps[1] Algorithm 4, eps[2] Algorithm 1 on the complete graph.
const AccuracySweep& e13() {
  static const AccuracySweep s = [] {
    const graph::Torus2D torus(512, 512);
    constexpr std::uint32_t kAgents = 26215;
    constexpr std::uint32_t kTrials = 6;
    AccuracySweep out{doublings(32, 256), {}, {{}, {}, {}}};
    for (double t : out.ts) {
      std::vector<core::IndependentSamplingResult> runs(kTrials);
      util::parallel_for(kTrials, [&](std::size_t trial) {
        runs[trial] = core::run_independent_sampling(
            torus, kAgents, u32(t), rng::derive_seed(0x13B, trial));
      });
      Series alg4;
      for (const auto& r : runs) {
        alg4.insert(alg4.end(), r.estimates.begin(), r.estimates.end());
      }
      out.eps[0].push_back(epsilon90(torus, kAgents, t, 0x13A, kTrials));
      out.eps[1].push_back(stats::epsilon_at_confidence(
          alg4, runs.front().true_density, 1.0 - kDelta));
      out.eps[2].push_back(epsilon90(graph::CompleteGraph(262144), kAgents, t,
                                     0x13C, kTrials));
    }
    return out;
  }();
  return s;
}

/// E14: f~ error@90% per f_P in {0.5, 0.25, 0.1} (rarest last) and
/// t = 256..4096, 64x64 torus, 410 agents.
const std::vector<Series>& e14() {
  static const std::vector<Series> errors = [] {
    const graph::Torus2D torus(64, 64);
    constexpr std::uint32_t kAgents = 410;
    std::vector<Series> out;
    for (double f_target : {0.5, 0.25, 0.1}) {
      const auto property = static_cast<std::uint32_t>(f_target * kAgents);
      Series row;
      for (double t : doublings(256, 4096)) {
        std::vector<core::PropertyFrequencyResult> runs(8);
        util::parallel_for(runs.size(), [&](std::size_t trial) {
          runs[trial] = core::estimate_property_frequency(
              torus, kAgents, property, u32(t),
              rng::derive_seed(0x14A, u32(t), trial));
        });
        Series f_samples;
        for (const auto& r : runs) {
          for (std::size_t i = 0; i < r.frequency_estimates.size(); ++i) {
            if (r.density_estimates[i] > 0.0) {
              f_samples.push_back(r.frequency_estimates[i]);
            }
          }
        }
        row.push_back(stats::epsilon_at_confidence(
            f_samples, static_cast<double>(property) / kAgents, 1.0 - kDelta));
      }
      out.push_back(row);
    }
    return out;
  }();
  return errors;
}

/// Link queries one trial spends at the smallest doubling walk count
/// whose median relative error over 40 trials is <= 0.25.  `run(walks,
/// trial)` returns an Algorithm 2 or KLSC14 result.
template <typename Run>
std::uint64_t queries_at_target(std::uint32_t max_walks, double truth,
                                const Run& run) {
  constexpr std::uint32_t kTrials = 40;
  std::uint64_t queries = 0;
  for (std::uint32_t walks = 4; walks < max_walks; walks *= 2) {
    Series errs(kTrials, kInf);
    std::vector<std::uint64_t> q(kTrials, 0);
    util::parallel_for(kTrials, [&](std::size_t trial) {
      const auto r = run(walks, trial);
      q[trial] = r.link_queries;
      if (r.saw_collision) {
        errs[trial] = std::fabs(r.size_estimate - truth) / truth;
      }
    });
    queries = q[0];
    if (stats::median(errs) <= 0.25) {
      break;
    }
  }
  return queries;
}

/// E15: KLSC14 queries / our queries at equal target error on 3-D tori
/// of odd side (an even-sided torus is bipartite and a non-lazy walk
/// never mixes; Section 5.1 assumes a non-bipartite network).
const Series& e15() {
  static const Series ratio = [] {
    Series out;
    for (std::uint32_t side : {7u, 9u, 13u, 17u}) {
      const graph::Graph g = graph::make_torus_kd_graph(3, side);
      const auto m = static_cast<std::uint32_t>(core::burn_in_rounds(
          g.num_edges(), kDelta, spectral::second_eigenvalue_magnitude(g)));
      const double truth = g.num_vertices();
      // Ours: t = M counting rounds after the same burn-in.
      const std::uint64_t ours = queries_at_target(
          4096, truth, [&](std::uint32_t walks, std::uint64_t trial) {
            netsize::SizeEstimationConfig cfg;
            cfg.num_walks = walks;
            cfg.rounds = m;
            cfg.burn_in = m;
            return netsize::estimate_network_size(
                g, cfg, rng::derive_seed(0x15A, trial));
          });
      const std::uint64_t katzir = queries_at_target(
          65536, truth, [&](std::uint32_t walks, std::uint64_t trial) {
            netsize::KatzirConfig cfg;
            cfg.num_walks = walks;
            cfg.burn_in = m;
            return netsize::katzir_estimate(g, cfg,
                                            rng::derive_seed(0x15B, trial));
          });
      out.push_back(static_cast<double>(katzir) / static_cast<double>(ours));
    }
    return out;
  }();
  return ratio;
}

struct TokenSweep {
  Series ts;
  Series penalty;     // walk stderr / independent stderr
  Series dedup_gain;  // walk stderr / dedup stderr
};

/// E16: 400 token walks per t = 128..4096 on a 128x128 sensor field.
TokenSweep token_sweep(const sensor::SensorField& field, std::uint64_t seed) {
  TokenSweep s;
  for (double t : doublings(128, 4096)) {
    stats::Accumulator walk;
    stats::Accumulator dedup;
    stats::Accumulator indep;
    for (std::uint32_t trial = 0; trial < 400; ++trial) {
      const auto r = sensor::run_token_sampling(
          field, u32(t), rng::derive_seed(seed, u32(t), trial));
      walk.add(r.walk_estimate);
      dedup.add(r.dedup_estimate);
      indep.add(r.independent_estimate);
    }
    s.ts.push_back(t);
    s.penalty.push_back(walk.sample_stddev() / indep.sample_stddev());
    s.dedup_gain.push_back(walk.sample_stddev() / dedup.sample_stddev());
  }
  return s;
}

const TokenSweep& e16_iid() {
  static const TokenSweep s = token_sweep(
      sensor::SensorField::bernoulli(graph::Torus2D(128, 128), 0.5, 0x16A),
      0x16B);
  return s;
}

const TokenSweep& e16_correlated() {
  static const TokenSweep s = token_sweep(
      sensor::SensorField::gradient(graph::Torus2D(128, 128)), 0x16C);
  return s;
}

/// Penalty over the log(2t) envelope at each t.
Series penalty_over_log(const TokenSweep& s) {
  Series out;
  for (std::size_t i = 0; i < s.ts.size(); ++i) {
    out.push_back(s.penalty[i] / log2t(s.ts[i]));
  }
  return out;
}

/// Penalty growth from the first t to the last, and the log(2t) growth
/// over the same span.
Verdict penalty_growth(const TokenSweep& s) {
  return {s.penalty.back() / s.penalty.front(),
          log2t(s.ts.back()) / log2t(s.ts.front())};
}

/// E-ABL: a 48x48 torus with 231 agents (d ~ 0.1).
constexpr std::uint32_t kAblSide = 48;
constexpr std::uint32_t kAblAgents = 231;
constexpr double kAblDensity = (kAblAgents - 1.0) / (kAblSide * kAblSide);

sim::DensityConfig abl_config(std::uint32_t rounds) {
  sim::DensityConfig cfg;
  cfg.num_agents = kAblAgents;
  cfg.rounds = rounds;
  return cfg;
}

// ---------------------------------------------------------------------------
// The table.
// ---------------------------------------------------------------------------

enum class Bound {
  kNear,     // |measured - expected| <= tolerance
  kAtMost,   // measured <= expected + tolerance
  kAtLeast,  // measured >= expected - tolerance
  kAbove,    // measured > expected (a strict ordering)
};

struct Claim {
  const char* id;
  const char* reference;
  const char* statistic;  // what is measured, then what it is compared to
  Bound bound;
  double tolerance;
  const char* reason;
  Verdict (*evaluate)();
};

const Claim kClaims[] = {
    {"E1.eps_slope", "Theorem 1",
     "slope of eps90 vs t (d = 0.05, 0.2; farthest) vs slope of "
     "log(2t)/sqrt(td)",
     Bound::kNear, 0.15,
     "the variance carries only sqrt(log t) of the log(2t) upper bound", [] {
       const double expected = theorem1_slope(e1().ts);
       return Verdict{farthest({slope(e1().ts, e1().eps[0]),
                                slope(e1().ts, e1().eps[1])},
                               expected),
                      expected};
     }},
    {"E1.normalized_flat", "Theorem 1",
     "max/min of eps*sqrt(td)/log(2t) over t, worst d, vs 2", Bound::kAtMost,
     0.0, "Theorem 1 fixes the shape up to a constant", [] {
       double worst = 1.0;
       for (std::size_t i = 0; i < e1().eps.size(); ++i) {
         Series normalized;
         for (std::size_t j = 0; j < e1().ts.size(); ++j) {
           const double t = e1().ts[j];
           normalized.push_back(e1().eps[i][j] *
                                std::sqrt(t * e1().densities[i]) / log2t(t));
         }
         worst = std::max(worst, spread(normalized));
       }
       return Verdict{worst, 2.0};
     }},
    {"E1.below_theory", "Theorem 1",
     "max over t, d of eps90 / theorem1_epsilon(c1 = 1) vs 1", Bound::kAtMost,
     0.0, "the c1 = 1 curve upper-bounds the measured eps", [] {
       double worst = 0.0;
       for (std::size_t i = 0; i < e1().eps.size(); ++i) {
         for (std::size_t j = 0; j < e1().ts.size(); ++j) {
           worst = std::max(worst, e1().eps[i][j] / core::theorem1_epsilon(
                                                       u32(e1().ts[j]),
                                                       e1().densities[i],
                                                       kDelta));
         }
       }
       return Verdict{worst, 1.0};
     }},
    {"E3.recollision_slope", "Lemma 4",
     "slope of P[re-collision], m = 2..256, vs slope of 1/(m+1) + 1/A",
     Bound::kNear, 0.1, "the exact Z^2 law has slope -0.98 here", [] {
       const Series ms = doublings(2, 256);
       return Verdict{slope(ms, Series(e3().begin() + 1, e3().end())),
                      formula_slope(ms, [](double m) {
                        return core::beta_torus2d(u32(m), 256 * 256);
                      })};
     }},
    {"E3.tracks_bound", "Lemma 4",
     "max/min over m = 1..256 of P / (1/(m+1) + 1/A) vs 2", Bound::kAtMost,
     0.0, "P ~ 1/(pi m): the ratio moves from 1/2 at m = 1 to 1/pi", [] {
       Series beta;
       for (double m : doublings(1, 256)) {
         beta.push_back(core::beta_torus2d(u32(m), 256 * 256));
       }
       return Verdict{spread(ratios(e3(), beta)), 2.0};
     }},
    {"E4.equalization_slope", "Corollary 10",
     "slope of P[back at origin], even m = 2..256, vs slope of 1/(m+1)",
     Bound::kNear, 0.1, "the exact Z^2 return law has slope -0.96 here", [] {
       const Series ms = doublings(2, 256);
       const auto curve = walk::measure_equalization_curve(
           graph::Torus2D(256, 256), 256, 200000, 0xE4A);
       Series p;
       for (double m : ms) {
         p.push_back(curve.probability[u32(m)]);
       }
       return Verdict{slope(ms, p), formula_slope(ms, [](double m) {
                        return 1.0 / (m + 1);
                      })};
     }},
    {"E4.visit_envelope", "Corollary 15",
     "max over t of P[visit fixed node] / ((t/A) log 2t) vs 1",
     Bound::kAtMost, 0.0, "the O((t/A) log 2t) bound at constant 1", [] {
       Series envelope;
       for (double t : e4().ts) {
         envelope.push_back(t / 4096.0 * log2t(t));
       }
       return Verdict{max_of(ratios(e4().p_visit, envelope)), 1.0};
     }},
    {"E4.visits_given_any", "Corollary 15",
     "max/min over t of E[visits | any] / log(2t) vs 2", Bound::kAtMost, 0.0,
     "Theta(log 2t): level within a factor 2 over a 16x range of t", [] {
       Series logs;
       for (double t : e4().ts) {
         logs.push_back(log2t(t));
       }
       return Verdict{spread(ratios(e4().given_any, logs)), 2.0};
     }},
    {"E4.moment_w_bounded", "Corollary 16",
     "max over k of w(t = 4096)/w(t = 256), w = (E[c^k]/k!)^{1/k}/log 2t, "
     "vs 1.5",
     Bound::kAtMost, 0.0, "a bounded w does not grow with t", [] {
       const graph::Torus2D torus(256, 256);
       const Series w = implied_w(
           {256, 4096},
           [&](std::uint32_t t) {
             return walk::equalization_counts(torus, t, 60000, 0xE4C);
           },
           log2t);
       return Verdict{max_of(ratios(Series(w.begin() + 4, w.end()),
                                    Series(w.begin(), w.begin() + 4))),
                      1.5};
     }},
    {"E5.torus_w_level", "Lemma 11 / Claim 14",
     "max/min of w = (E[c^k]/k!)^{1/k}/log 2t over t = 256..4096, k = 1..4, "
     "vs 2",
     Bound::kAtMost, 0.0, "one w fits the k! (w log 2t)^k envelope", [] {
       const graph::Torus2D torus(256, 256);
       return Verdict{spread(implied_w(
                          {256, 1024, 4096},
                          [&](std::uint32_t t) {
                            return walk::pair_collision_counts_given_first(
                                torus, t, 40000, 0xE5A);
                          },
                          log2t)),
                      2.0};
     }},
    {"E5.ring_w_level", "Lemma 11 / Claim 14 (ring contrast)",
     "max/min of w = (E[c^k]/k!)^{1/k}/sqrt(t) over t and k, ring 2^16, vs 2",
     Bound::kAtMost, 0.0, "ring collision counts scale as sqrt(t)", [] {
       const graph::Ring ring(1u << 16);
       return Verdict{spread(implied_w(
                          {256, 1024, 4096},
                          [&](std::uint32_t t) {
                            return walk::pair_collision_counts_given_first(
                                ring, t, 40000, 0xE5B);
                          },
                          [](double t) { return std::sqrt(t); })),
                      2.0};
     }},
    {"E6.recollision_slope", "Lemma 20",
     "slope of P[re-collision], ring 2^16, m = 2..256, vs slope of "
     "1/sqrt(m+1) + 1/A",
     Bound::kNear, 0.1, "the exact Z law has slope -0.49 here", [] {
       const auto [measured, expected] = recollision_slope(
           graph::Ring(1u << 16), doublings(2, 256), 300000, 0xE6A,
           [](double m) { return core::beta_ring(u32(m), 1u << 16); });
       return Verdict{measured, expected};
     }},
    {"E6.ring_eps_slope", "Theorem 21",
     "slope of eps90 vs t, ring 4096, vs slope of sqrt(1/(sqrt(t) d delta))",
     Bound::kNear, 0.1, "B(t) ~ sqrt(t) on the ring while t << A^2", [] {
       return Verdict{slope(e6().ts, e6().eps[0]),
                      formula_slope(e6().ts, [](double t) {
                        return core::theorem21_epsilon_ring(u32(t), 0.1,
                                                            kDelta);
                      })};
     }},
    {"E6.torus_eps_slope", "Theorem 1 (ring contrast)",
     "slope of eps90 vs t, torus 64x64, vs slope of log(2t)/sqrt(td)",
     Bound::kNear, 0.15, "as E1.eps_slope", [] {
       return Verdict{slope(e6().ts, e6().eps[1]), theorem1_slope(e6().ts)};
     }},
    {"E6.ring_worse", "Theorem 21 vs Theorem 1",
     "min over t of ring eps / torus eps vs 1", Bound::kAbove, 0.0,
     "weak local mixing on the ring", [] {
       return Verdict{min_of(ratios(e6().eps[0], e6().eps[1])), 1.0};
     }},
    {"E7.k3_slope", "Lemma 22",
     "slope of P[re-collision], 3-D torus side 64, m = 2..64, vs slope of "
     "(m+1)^{-3/2} + 1/A",
     Bound::kNear, 0.2, "the exact Z^3 law is 0.12 steeper than the bound's",
     [] {
       const graph::TorusKD topo(3, 64);
       const auto [measured, expected] = recollision_slope(
           topo, doublings(2, 64), 400000, 0xE7A + 3, [&](double m) {
             return core::beta_torus_kd(u32(m), 3, topo.num_nodes());
           });
       return Verdict{measured, expected};
     }},
    {"E7.k3_vs_complete", "Lemma 22 / Section 4.3",
     "max over t = 128..4096 of eps(3-D torus 16^3) / eps(complete) vs 2",
     Bound::kAtMost, 0.0, "B(t) = O(1): sqrt(1 + 2 * 0.52 Polya mass) ~ 1.4",
     [] {
       return Verdict{
           worst_ratio_to_complete(graph::TorusKD(3, 16), 4096, 0xE7C, 0xE7D),
           2.0};
     }},
    {"E8.upper_bound", "Lemma 23",
     "max over m <= 24, d in {4, 8} of P / (lambda^m + 1/A) vs 1",
     Bound::kAtMost, 0.15, "slack: ~100 hits per m at the 1/A floor", [] {
       double worst = 0.0;
       for (const Curve& c : e8()) {
         for (std::size_t i = 0; i < c.ms.size(); ++i) {
           worst = std::max(worst, c.p[i] / core::beta_expander(
                                                u32(c.ms[i]), c.lambda, 4096));
         }
       }
       return Verdict{worst, 1.0};
     }},
    {"E8.decay_rate", "Lemma 23",
     "max over d of exp(semilog slope of P - 1/A, pre-floor) / lambda vs 1",
     Bound::kAtMost, 0.0, "geometric decay at rate <= lambda", [] {
       double worst = 0.0;
       for (const Curve& c : e8()) {
         Series x;
         Series y;
         for (std::size_t i = 0; i < c.ms.size(); ++i) {
           if (c.p[i] > 1.5 / 4096) {
             x.push_back(c.ms[i]);
             y.push_back(c.p[i] - 1.0 / 4096);
           }
         }
         worst = std::max(
             worst, std::exp(stats::semilog_fit(x, y).slope) / c.lambda);
       }
       return Verdict{worst, 1.0};
     }},
    {"E8.vs_complete", "Lemma 23 / Section 4.4",
     "max over t = 128..2048 of eps(8-regular 4096) / eps(complete) vs 2",
     Bound::kAtMost, 0.0, "O(1/(1-lambda)^2) with lambda ~ 0.66", [] {
       const graph::Graph g = graph::make_random_regular_graph(4096, 8, 0xE8F);
       return Verdict{
           worst_ratio_to_complete(graph::ExplicitTopology(g, "random-regular"),
                                   2048, 0xE8B, 0xE8C),
           2.0};
     }},
    {"E9.upper_bound", "Lemma 25",
     "max over m = 1..48, k in {12, 16} of P / ((9/10)^{m-1} + A^{-1/2}) vs 1",
     Bound::kAtMost, 0.0, "the bound at constant 1", [] {
       double worst = 0.0;
       for (const Curve& c : e9()) {
         for (std::size_t i = 0; i < c.ms.size(); ++i) {
           worst = std::max(worst, c.p[i] / core::beta_hypercube(u32(c.ms[i]),
                                                                  c.area));
         }
       }
       return Verdict{worst, 1.0};
     }},
    {"E9.floor_shrinks", "Lemma 25",
     "mean P over m = 24..48, k = 12 over k = 16, vs sqrt(A16/A12) = 4",
     Bound::kAtLeast, 0.0, "the floor term A^{-1/2} shrinks with sqrt(A)", [] {
       Series floor;
       for (const Curve& c : e9()) {
         stats::Accumulator acc;
         for (std::size_t i = 0; i < c.ms.size(); ++i) {
           if (c.ms[i] >= 24) {
             acc.add(c.p[i]);
           }
         }
         floor.push_back(acc.mean());
       }
       return Verdict{floor[0] / floor[1],
                      std::sqrt(static_cast<double>(e9()[1].area) /
                                static_cast<double>(e9()[0].area))};
     }},
    {"E9.vs_complete", "Lemma 25 / Section 4.5",
     "max over t = 128..2048 of eps(hypercube 12) / eps(complete) vs 1.5",
     Bound::kAtMost, 0.0, "P(m) - 1/A sums to ~0.1; parity adds ~5% noise",
     [] {
       return Verdict{
           worst_ratio_to_complete(graph::Hypercube(12), 2048, 0xE9B, 0xE9C),
           1.5};
     }},
    {"E10.error_slope", "Theorem 27",
     "slope of median error vs n^2 t (3-D torus, 8-regular; farthest) vs "
     "slope of the Theorem 27 eps",
     Bound::kNear, 0.15, "eps ~ sqrt(B(t)/(n^2 t)) at fixed B(t)", [] {
       const double expected = slope(e10()[0].budgets, e10()[0].theory);
       return Verdict{farthest({slope(e10()[0].budgets, e10()[0].errors),
                                slope(e10()[1].budgets, e10()[1].errors)},
                               expected),
                      expected};
     }},
    {"E10.envelope", "Theorem 27",
     "max over budgets of median error / theorem27_epsilon(delta = 0.5) vs 1",
     Bound::kAtMost, 0.0, "Theorem 27 at delta = 0.5 bounds the median", [] {
       return Verdict{
           std::max(max_of(ratios(e10()[0].errors, e10()[0].theory)),
                    max_of(ratios(e10()[1].errors, e10()[1].theory))),
           1.0};
     }},
    {"E11.error_slope", "Theorem 31",
     "slope of median error vs samples n = 64..4096 (BA, Watts-Strogatz; "
     "farthest) vs -1/2",
     Bound::kNear, 0.1, "1/D is a mean of n i.i.d. stationary samples", [] {
       const Series ns = doublings(64, 4096);
       const graph::Graph ba = graph::make_barabasi_albert_graph(2000, 3, 0x11C);
       const graph::Graph ws =
           graph::make_watts_strogatz_graph(2000, 3, 0.2, 0x11E);
       return Verdict{farthest({slope(ns, degree_errors(ba, 0x11D)),
                                slope(ns, degree_errors(ws, 0x11F))},
                               -0.5),
                      -0.5};
     }},
    {"E12.tv_rate", "Section 5.1.4",
     "exp(semilog slope of TV(dist_m, pi)) over m in [M/4, M] / lambda vs 1",
     Bound::kAtMost, 0.01, "slack for the power-iteration lambda", [] {
       const BurnIn& b = e12();
       const auto pi = spectral::stationary_distribution(b.g);
       Series dist(b.g.num_vertices(), 0.0);
       dist[0] = 1.0;
       Series x;
       Series y;
       for (std::uint32_t m = 0; m <= b.budget; ++m) {
         const double tv = spectral::tv_distance(dist, pi);
         if (4 * m >= b.budget && tv > 0.0) {
           x.push_back(m);
           y.push_back(tv);
         }
         dist = spectral::evolve_step(b.g, dist);
       }
       return Verdict{std::exp(stats::semilog_fit(x, y).slope) / b.lambda,
                      1.0};
     }},
    {"E12.biased_low", "Section 5.1.4",
     "median size estimate / |V| with zero burn-in vs 0.9", Bound::kAtMost,
     0.0, "walks clustered at the seed vertex collide too often",
     [] { return Verdict{median_size_fraction(0), 0.9}; }},
    {"E12.unbiased_at_budget", "Section 5.1.4",
     "median size estimate / |V| with burn-in M = log(|E|/delta)/(1-lambda) "
     "vs 1",
     Bound::kNear, 0.1, "at M the start is within TV delta = 0.1 of pi",
     [] { return Verdict{median_size_fraction(e12().budget), 1.0}; }},
    {"E13.alg4_tracks_complete", "Theorem 32 / Appendix A",
     "max over t = 32..256 of eps(Algorithm 4) / eps(complete) vs sqrt(2)",
     Bound::kAtMost, 0.2, "Algorithm 4 samples half the population", [] {
       return Verdict{max_of(ratios(e13().eps[1], e13().eps[2])),
                      std::sqrt(2.0)};
     }},
    {"E13.ratio_growth", "Theorem 1 vs Theorem 32",
     "slope of eps(Algorithm 1)/eps(Algorithm 4) vs log(2t), log-log, vs 1",
     Bound::kAtMost, 0.0, "the walk pays at most the log(2t) factor", [] {
       Series logs;
       for (double t : e13().ts) {
         logs.push_back(log2t(t));
       }
       return Verdict{slope(logs, ratios(e13().eps[0], e13().eps[1])), 1.0};
     }},
    {"E14.decays_with_t", "Section 5.2",
     "count of (f_P, t) steps where the f~ error does not fall vs 0",
     Bound::kAtMost, 0.0, "eps shrinks with t at every f_P", [] {
       double violations = 0;
       for (const Series& row : e14()) {
         for (std::size_t j = 1; j < row.size(); ++j) {
           violations += row[j] < row[j - 1] ? 0 : 1;
         }
       }
       return Verdict{violations, 0.0};
     }},
    {"E14.rarer_needs_more", "Section 5.2",
     "count of (t, f_P) steps where a rarer property errs no more vs 0",
     Bound::kAtMost, 0.0, "the budget is set by d_P = f_P d", [] {
       double violations = 0;
       for (std::size_t i = 1; i < e14().size(); ++i) {
         for (std::size_t j = 0; j < e14()[i].size(); ++j) {
           violations += e14()[i][j] > e14()[i - 1][j] ? 0 : 1;
         }
       }
       return Verdict{violations, 0.0};
     }},
    {"E15.fewer_queries", "Section 5.1.5",
     "min over |V| of KLSC14 / our link queries at median error 0.25 vs 1",
     Bound::kAbove, 0.0, "t = M counting rounds amortize the burn-in",
     [] { return Verdict{min_of(e15()), 1.0}; }},
    {"E15.advantage_grows", "Section 5.1.5",
     "query ratio at |V| = 4913 over |V| = 343 vs 1", Bound::kAbove, 0.0,
     "M grows with |V|, and so does the amortization",
     [] { return Verdict{e15().back() / e15().front(), 1.0}; }},
    {"E16.iid_penalty_small", "Section 6.3.1",
     "max over t of (walk / independent stderr) / log(2t), i.i.d. field, "
     "vs 1",
     Bound::kAtMost, 0.0, "repeat visits cost at most the log factor",
     [] { return Verdict{max_of(penalty_over_log(e16_iid())), 1.0}; }},
    {"E16.iid_penalty_slow", "Section 6.3.1",
     "i.i.d. penalty at t = 4096 over t = 128 vs log(8192)/log(256)",
     Bound::kAtMost, 0.0, "the penalty grows at most logarithmically",
     [] { return penalty_growth(e16_iid()); }},
    {"E16.dedup_buys_little", "Section 6.3.1",
     "max over t of walk / dedup stderr, i.i.d. field, vs 2", Bound::kAtMost,
     0.0, "Z^2 range theory gives ~1.5",
     [] { return Verdict{max_of(e16_iid().dedup_gain), 2.0}; }},
    {"E16.correlated_penalty_large", "Section 6.3.1",
     "min over t of penalty / log(2t), correlated field, vs 1",
     Bound::kAtLeast, 0.0, "the walk sees one patch of a correlated field",
     [] { return Verdict{min_of(penalty_over_log(e16_correlated())), 1.0}; }},
    {"E16.correlated_penalty_grows", "Section 6.3.1",
     "correlated penalty at t = 4096 over t = 128 vs log(8192)/log(256)",
     Bound::kAtLeast, 0.0, "independent stderr falls as t^{-1/2}; bias stays",
     [] { return penalty_growth(e16_correlated()); }},
    {"ABL.laziness_unbiased", "Corollary 3 (Section 6.1)",
     "max over lazy in {0, 0.25, 0.5} of |mean d~/d - 1|, t = 1024, vs 0",
     Bound::kNear, 0.03, "a lazy walk is regular; ~0.8% Monte Carlo error",
     [] {
       const graph::Torus2D torus(kAblSide, kAblSide);
       double worst = 0.0;
       for (double lazy : {0.0, 0.25, 0.5}) {
         sim::DensityConfig cfg = abl_config(1024);
         cfg.lazy_probability = lazy;
         worst = std::max(
             worst,
             std::fabs(mean_estimate(torus, cfg, 0xAB1) / kAblDensity - 1.0));
       }
       return Verdict{worst, 0.0};
     }},
    {"ABL.noise_linear", "Section 6.1",
     "max over miss, spurious of |mean d~ / ((1-miss) d + spurious) - 1|, "
     "t = 512, vs 0",
     Bound::kNear, 0.03, "the linear sensing model; ~0.9% Monte Carlo error",
     [] {
       const graph::Torus2D torus(kAblSide, kAblSide);
       double worst = 0.0;
       for (double miss : {0.0, 0.2, 0.4}) {
         for (double spurious : {0.0, 0.02}) {
           sim::DensityConfig cfg = abl_config(512);
           cfg.detection_miss_probability = miss;
           cfg.spurious_collision_probability = spurious;
           const double predicted = (1.0 - miss) * kAblDensity + spurious;
           worst = std::max(
               worst,
               std::fabs(mean_estimate(torus, cfg, 0xAB2) / predicted - 1.0));
         }
       }
       return Verdict{worst, 0.0};
     }},
    {"ABL.drift_worse", "Section 6.1",
     "eps90 with drift 0.2 / eps90 without, t = 1024, vs 1", Bound::kAbove,
     0.0, "drift 0.2 cuts the relative step's x-variance from 0.5 to 0.34",
     [] {
       const auto eps_at = [](double drift) {
         return epsilon90(
             graph::BiasedTorus2D::with_drift(kAblSide, kAblSide, drift),
             kAblAgents, 1024, 0xAB3, 24);
       };
       return Verdict{eps_at(0.2) / eps_at(0.0), 1.0};
     }},
    {"ABL.anytime_decay", "Theorem 1 (anytime)",
     "max over checkpoints r >= 64 of |local slope of mean |d~-d|/d - "
     "Theorem 1's| vs 0",
     Bound::kNear, 0.25, "below r = 64, r d < 6 pins the error near 1", [] {
       const std::vector<std::uint32_t> checkpoints = {16,  32,   64,  128,
                                                       256, 1024, 4096};
       std::vector<stats::Accumulator> abs_err(checkpoints.size());
       for (std::uint32_t trial = 0; trial < 6; ++trial) {
         const auto r = sim::run_trajectory(
             graph::Torus2D(kAblSide, kAblSide), kAblAgents, kAblAgents,
             checkpoints, rng::derive_seed(0xAB4, trial));
         for (const auto& agent : r.estimates) {
           for (std::size_t c = 0; c < checkpoints.size(); ++c) {
             abs_err[c].add(std::fabs(agent[c] - kAblDensity) / kAblDensity);
           }
         }
       }
       double worst = 0.0;
       for (std::size_t c = 3; c < checkpoints.size(); ++c) {
         const Series r = {static_cast<double>(checkpoints[c - 1]),
                           static_cast<double>(checkpoints[c])};
         worst = std::max(
             worst,
             std::fabs(slope(r, {abs_err[c - 1].mean(), abs_err[c].mean()}) -
                       theorem1_slope(r)));
       }
       return Verdict{worst, 0.0};
     }},
};

void PrintTo(const Claim& c, std::ostream* os) { *os << c.id; }

class PaperClaims : public ::testing::TestWithParam<Claim> {};

TEST_P(PaperClaims, Holds) {
  const Claim& c = GetParam();
  const Verdict v = c.evaluate();
  std::cout << c.id << " [" << c.reference << "] " << c.statistic
            << "\n  measured " << v.measured << ", expected " << v.expected
            << ", tolerance " << c.tolerance << " — " << c.reason << "\n";
  switch (c.bound) {
    case Bound::kNear:
      EXPECT_LE(std::fabs(v.measured - v.expected), c.tolerance);
      break;
    case Bound::kAtMost:
      EXPECT_LE(v.measured, v.expected + c.tolerance);
      break;
    case Bound::kAtLeast:
      EXPECT_GE(v.measured, v.expected - c.tolerance);
      break;
    case Bound::kAbove:
      EXPECT_GT(v.measured, v.expected);
      break;
  }
}

// GCC 12 raises a -Wrestrict false positive (GCC bug 105329) from the
// inlined std::string work in the parameter-name lambda under -O2.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#endif
INSTANTIATE_TEST_SUITE_P(Table, PaperClaims, ::testing::ValuesIn(kClaims),
                         [](const ::testing::TestParamInfo<Claim>& info) {
                           std::string name = info.param.id;
                           std::replace(name.begin(), name.end(), '.', '_');
                           return name;
                         });
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace
}  // namespace antdense
