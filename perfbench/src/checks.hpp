// Output checks: the verdicts that decide `correct` and feed the failed
// count.  Pure functions of a result's numbers, so the benchmark's self
// test can feed them corrupted inputs and confirm they fire.
#pragma once

#include <cstddef>
#include <string>

namespace perfbench {

/// Width of every statistical check, in standard errors.
inline constexpr double kSigmas = 4.0;

/// The standard error a ScenarioResult reports is stddev/sqrt(count)
/// over the pooled per-agent estimates.  Each collision is counted by
/// both agents in it, and on a regular graph with a uniform start
/// distinct pairs are uncorrelated, so the variance of the pooled mean
/// is twice what that formula assumes.  Every check widens by sqrt(2).
double true_standard_error(double reported_se);

/// Lemma 2: on a regular graph with uniform placement the mean estimate
/// is unbiased, so |mean - truth| <= 4 SE.
bool lemma2_unbiased(double mean, double reported_se, double truth);

/// On a non-regular graph the collision probability of two walkers
/// sharing any distribution is at least the uniform one (Cauchy-Schwarz),
/// so the mean can only exceed the uniform truth: mean >= truth - 4 SE.
bool lemma2_lower_bound(double mean, double reported_se, double truth);

/// Independent estimates of one expectation (same graph, same agent
/// count, any engine or seed), pooled: the mean of their means and the
/// standard error of that mean in the reported convention, ready for the
/// checks above.  Small walks are judged pooled: their means are skewed
/// (on a ring, pair collisions come in bursts), and one 4-SE check per
/// small result would also add up to false alarms over many results.
class MeanPool {
 public:
  void add(double mean, double reported_se);
  std::size_t size() const { return count_; }
  double mean() const;
  double reported_se() const;

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double sum_sq_se_ = 0.0;
};

/// Theorem 1's verdict for a planned spec: at least 1 - delta of the
/// estimates fall within (1 +- eps) of the truth.
bool theorem1_verdict(double within_eps, double delta);

/// Byte equality of two canonical payloads, with a diagnostic naming the
/// first differing offset (empty when equal).
std::string payload_mismatch(const std::string& expected,
                             const std::string& actual);

}  // namespace perfbench
