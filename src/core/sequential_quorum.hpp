// Sequential (anytime) quorum detection — the Section 6.2 extension the
// paper sketches: for threshold detection an agent does not need a
// (1±ε) estimate of d itself, only to decide d >= θ(1+γ) vs d <= θ, and
// it can stop as soon as its running evidence is conclusive.
//
// The detector combines the anytime estimate c/r with the per-agent
// empirical-Bernstein interval (core/confidence.hpp): it declares
// quorum when the interval's lower end clears θ(1+γ/2), declares
// no-quorum when the upper end falls below it, and keeps walking
// otherwise, up to the Theorem 1 budget.  Densities far from the
// threshold resolve in far fewer rounds than the worst-case budget —
// the property the benches quantify.
//
// Paper: Musco, Su & Lynch (PODC 2016, arXiv:1603.02981); full
// concept-to-header map in docs/ARCHITECTURE.md.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/quorum.hpp"
#include "graph/topology.hpp"
#include "rng/splitmix64.hpp"
#include "sim/walk_engine.hpp"
#include "util/check.hpp"

namespace antdense::core {

enum class QuorumDecision : std::uint8_t {
  kQuorum,
  kNoQuorum,
  kUndecided,  // budget exhausted inside the don't-care band
};

struct SequentialQuorumResult {
  std::vector<QuorumDecision> decisions;      // per agent
  std::vector<std::uint32_t> decision_round;  // round of stopping (or budget)
  double true_density = 0.0;
  std::uint32_t budget = 0;
};

struct SequentialQuorumConfig {
  double threshold = 0.0;     // θ
  double gamma = 0.0;         // separation gap
  double delta = 0.0;         // per-agent failure probability
  std::uint32_t check_every = 32;  // interval-evaluation cadence
  /// Width inflation handed to the empirical-Bernstein interval
  /// (log-flavored on the torus; see core/confidence.hpp).
  double correlation_inflation = 2.0;
  /// Hard round cap; 0 means "use the Theorem 1 budget".
  std::uint32_t max_rounds = 0;
};

/// The detectors as a walk observer: per-agent streaming moments of the
/// per-round counts (the empirical-Bernstein width without storing the
/// full history), read off the view's agent slice in after_round; every
/// `check_every` rounds the serial end_round decides each undecided
/// agent whose interval clears the midpoint, and done() ends the walk
/// once none is left.
class SequentialQuorumObserver {
 public:
  SequentialQuorumObserver(std::uint32_t num_agents,
                           const SequentialQuorumConfig& cfg)
      : cfg_(cfg),
        midpoint_(cfg.threshold * (1.0 + cfg.gamma / 2.0)),
        log_term_(std::log(3.0 / cfg.delta)),
        sum_(num_agents, 0.0),
        sum_sq_(num_agents, 0.0),
        undecided_(num_agents) {
    result_.decisions.assign(num_agents, QuorumDecision::kUndecided);
    result_.decision_round.assign(num_agents, 0);
  }

  template <typename View>
  void after_round(const View& v) {
    ANTDENSE_ASSERT(v.num_agents == sum_.size(),
                    "observer sized for a different agent count");
    for (std::uint32_t i = v.begin_agent; i < v.end_agent; ++i) {
      const double x = v.counter.occupancy(v.keys[i]) - 1;
      sum_[i] += x;
      sum_sq_[i] += x * x;
    }
  }

  void end_round(std::uint32_t round) {
    if (round % cfg_.check_every != 0 || round < 2) {
      return;
    }
    const double t = round;
    for (std::size_t i = 0; i < sum_.size(); ++i) {
      if (result_.decisions[i] != QuorumDecision::kUndecided) {
        continue;
      }
      const double mean = sum_[i] / t;
      const double variance =
          std::max(0.0, (sum_sq_[i] - t * mean * mean) / (t - 1.0));
      const double half =
          cfg_.correlation_inflation *
          (std::sqrt(2.0 * variance * log_term_ / t) + 3.0 * log_term_ / t);
      if (mean - half > midpoint_) {
        decide(i, QuorumDecision::kQuorum, round);
      } else if (mean + half < midpoint_) {
        decide(i, QuorumDecision::kNoQuorum, round);
      }
    }
  }

  bool done() const { return undecided_ == 0; }

  /// The decisions after a walk of `budget` rounds: agents whose
  /// interval still straddles the midpoint fall back to the
  /// fixed-horizon rule, with decision round `budget`.
  SequentialQuorumResult settle(std::uint32_t budget) {
    for (std::size_t i = 0; i < sum_.size(); ++i) {
      if (result_.decisions[i] == QuorumDecision::kUndecided) {
        decide(i,
               sum_[i] / budget >= midpoint_ ? QuorumDecision::kQuorum
                                             : QuorumDecision::kNoQuorum,
               budget);
      }
    }
    result_.budget = budget;
    return std::move(result_);
  }

 private:
  void decide(std::size_t i, QuorumDecision d, std::uint32_t round) {
    result_.decisions[i] = d;
    result_.decision_round[i] = round;
    --undecided_;
  }

  SequentialQuorumConfig cfg_;
  double midpoint_;
  double log_term_;
  std::vector<double> sum_;
  std::vector<double> sum_sq_;
  std::uint32_t undecided_;
  SequentialQuorumResult result_;
};

/// Runs all agents' sequential detectors simultaneously on `topo`: one
/// single-stream walk that ends once every agent has decided, or at the
/// budget.
template <graph::Topology T>
SequentialQuorumResult run_sequential_quorum(
    const T& topo, std::uint32_t num_agents,
    const SequentialQuorumConfig& cfg, std::uint64_t seed) {
  ANTDENSE_CHECK(num_agents >= 2, "need at least two agents");
  ANTDENSE_CHECK(cfg.check_every >= 1, "check cadence must be >= 1");
  const QuorumDetector detector(cfg.threshold, cfg.gamma, cfg.delta);
  const std::uint32_t budget =
      cfg.max_rounds > 0
          ? cfg.max_rounds
          : static_cast<std::uint32_t>(std::min<std::uint64_t>(
                detector.required_rounds(), topo.num_nodes()));

  SequentialQuorumObserver observer(num_agents, cfg);
  sim::run_walk(topo, {.num_agents = num_agents, .rounds = budget},
                rng::derive_seed(seed, 0x5EBu), sim::SingleExec{}, nullptr,
                observer);
  SequentialQuorumResult result = observer.settle(budget);
  result.true_density = static_cast<double>(num_agents - 1) /
                        static_cast<double>(topo.num_nodes());
  return result;
}

}  // namespace antdense::core
