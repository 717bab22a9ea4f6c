// Shared plumbing for the antdense benchmark program: command-line
// options, the seeded input generator, timing and quantile helpers, the
// correctness tally behind `correct` / `attempted` / `failed`, the
// metric report, and the host/build stamp.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "scenario/experiment.hpp"
#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values);

/// A stretch whose memory must not count toward peak_rss_mib():
/// rss_pause() keeps the peak so far aside, rss_resume() resets VmHWM to
/// the current RSS (/proc/self/clear_refs), forgetting the stretch's
/// transient peak.
void rss_pause();
void rss_resume();

/// Set-up samples spread over a timed window.  A workload offers a batch
/// after each timed pass; a batch repeats one set-up until it has taken
/// 20 ms (at least once) and keeps the batch's median.  Batches are taken
/// while they have used no more than a tenth of the window so far, so a
/// set-up of milliseconds (a campaign's expand) gets hundreds of batches
/// across the run and one of a second a few.  setup_s is the mean over
/// batches: the host moves between a fast and a slow state every second
/// or so, and a mean follows that mixture smoothly where a median jumps
/// from one state to the other.  A batch builds graphs while the
/// workload's own are alive, so it does not count toward peak_rss_mib().
class SetupSampler {
 public:
  /// `once` runs one set-up and returns the seconds it took.
  template <typename Once>
  void offer(double elapsed_s, Once&& once) {
    if (!batches_.empty() && spent_s_ > 0.1 * elapsed_s) {
      return;
    }
    const auto start = Clock::now();
    std::vector<double> samples;
    double total = 0.0;
    rss_pause();
    do {
      samples.push_back(once());
      total += samples.back();
    } while (total < 0.02);
    rss_resume();
    batches_.push_back(median(std::move(samples)));
    spent_s_ += std::chrono::duration<double>(Clock::now() - start).count();
  }
  double mean_s() const { return mean(batches_); }

 private:
  std::vector<double> batches_;  // per batch: median seconds of a set-up
  double spent_s_ = 0.0;         // wall time of every batch
};

/// The benchmark's own input generator (splitmix64).  Inputs derive from
/// it, never from the library's generators, so a change to the library's
/// RNG cannot change what the benchmark asks the library to do.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound), bound >= 1 (modulo bias is irrelevant here).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  double uniform01() { return static_cast<double>(next() >> 11) * 0x1p-53; }

 private:
  std::uint64_t state_;
};

/// One well-mixed 64-bit word from a tuple of words: how every input
/// derives its seeds from (workload seed, role, index).
std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned nproc = 1;
  std::string workdir;     // scratch space inside the checkout
  std::string commit;      // source revision, stamped into the output
};

/// Counts operations and failed checks.  Thread-safe.  Every failure is
/// also written to stderr so a red run says why.
class Tally {
 public:
  /// One operation (request, experiment, standalone check) attempted;
  /// `ok` false marks it failed.
  void record(bool ok, const std::string& what);
  std::uint64_t attempted() const;
  std::uint64_t failed() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Name -> (value, unit), printed in insertion order.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  double value(const std::string& name) const;
  antdense::util::JsonValue metrics_json() const;

  /// Sample counts behind the figures, printed on the detail line.
  void sample(const std::string& name, std::uint64_t count);
  const antdense::util::JsonValue& samples() const { return samples_; }

 private:
  antdense::util::JsonValue samples_ = antdense::util::JsonValue::object();
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// The process's resident-set high-water mark (VmHWM) in MiB, set-up
/// samples left out.  Each workload runs in its own process, so this is
/// that workload's peak.
double peak_rss_mib();

/// Host and build facts for the stamp line: core count, CPU model, L2/L3
/// sizes, SIMD path, compiler, build type, commit, workload and seed.
antdense::util::JsonValue host_stamp(const Options& options);

/// The canonical, timing-free bytes of a scenario result: to_json()
/// without the elapsed fields and without the spec's `threads` knob —
/// the same reduction the serve cache applies, so equal experiments
/// compare equal whatever thread count ran them.
std::string canonical_result(const antdense::scenario::ScenarioResult& r);

/// agents x rounds x trials of a resolved spec: the agent-rounds one
/// experiment executes.
double agent_rounds(const antdense::scenario::ScenarioSpec& resolved);

/// Reads a registry's JSON snapshot: the value of a counter/gauge, or
/// the sum of a histogram, under its exposition key (0 when absent).
double registry_value(const antdense::util::JsonValue& snapshot,
                      const std::string& key);
double registry_histogram_sum(const antdense::util::JsonValue& snapshot,
                              const std::string& key);

}  // namespace perfbench
