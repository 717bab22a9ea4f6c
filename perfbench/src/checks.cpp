#include "checks.hpp"

#include <cmath>

namespace perfbench {

double true_standard_error(double reported_se) {
  return std::sqrt(2.0) * reported_se;
}

bool lemma2_unbiased(double mean, double reported_se, double truth) {
  return std::isfinite(mean) &&
         std::abs(mean - truth) <= kSigmas * true_standard_error(reported_se);
}

bool lemma2_lower_bound(double mean, double reported_se, double truth) {
  return std::isfinite(mean) &&
         mean >= truth - kSigmas * true_standard_error(reported_se);
}

void MeanPool::add(double mean, double reported_se) {
  ++count_;
  sum_ += mean;
  sum_sq_se_ += reported_se * reported_se;
}

double MeanPool::mean() const {
  return sum_ / static_cast<double>(count_);
}

double MeanPool::reported_se() const {
  return std::sqrt(sum_sq_se_) / static_cast<double>(count_);
}

bool theorem1_verdict(double within_eps, double delta) {
  return within_eps >= 1.0 - delta;
}

std::string payload_mismatch(const std::string& expected,
                             const std::string& actual) {
  if (expected == actual) {
    return "";
  }
  std::size_t at = 0;
  while (at < expected.size() && at < actual.size() &&
         expected[at] == actual[at]) {
    ++at;
  }
  return "payloads differ at byte " + std::to_string(at) + " (lengths " +
         std::to_string(expected.size()) + " vs " +
         std::to_string(actual.size()) + ")";
}

}  // namespace perfbench
