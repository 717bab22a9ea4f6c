#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <iostream>
#include <sstream>
#include <thread>

namespace perfbench {

using antdense::util::JsonValue;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) {
    total += v;
  }
  return values.empty() ? 0.0 : total / static_cast<double>(values.size());
}

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  SplitMix gen(a);
  std::uint64_t h = gen.next();
  gen = SplitMix(h ^ (b * 0xD6E8FEB86659FD93ULL));
  h = gen.next();
  gen = SplitMix(h ^ (c * 0xA0761D6478BD642FULL));
  return gen.next();
}

void Tally::record(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

std::uint64_t Tally::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

std::uint64_t Tally::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (values_.find(name) == values_.end()) {
    order_.push_back(name);
  }
  values_[name] = {value, unit};
}

bool Report::has(const std::string& name) const {
  return values_.find(name) != values_.end();
}

double Report::value(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.first;
}

JsonValue Report::metrics_json() const {
  JsonValue out = JsonValue::object();
  for (const std::string& name : order_) {
    const auto& [value, unit] = values_.at(name);
    JsonValue item = JsonValue::object();
    item.set("value", std::isfinite(value) ? value : 0.0);
    item.set("unit", unit);
    out.set(name, std::move(item));
  }
  return out;
}

void Report::sample(const std::string& name, std::uint64_t count) {
  samples_.set(name, count);
}

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string cache_size(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    if (read_first_line(dir + "/level") == std::to_string(level) &&
        read_first_line(dir + "/type") != "Instruction") {
      return read_first_line(dir + "/size");
    }
  }
  return "unknown";
}

}  // namespace

namespace {

double vm_hwm_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double kept_peak_mib = 0.0;  // the peak before the last paused stretch

}  // namespace

double peak_rss_mib() { return std::max(kept_peak_mib, vm_hwm_mib()); }

void rss_pause() { kept_peak_mib = peak_rss_mib(); }

void rss_resume() {
#ifdef __GLIBC__
  // Hand the stretch's freed memory back first, or the allocator keeps
  // it resident and the reset below would keep it in the peak.
  malloc_trim(0);
#endif
  // "5" resets the peak resident set size to the current one (Linux 4.0).
  std::ofstream("/proc/self/clear_refs") << "5";
}

JsonValue host_stamp(const Options& options) {
  JsonValue stamp = JsonValue::object();
  stamp.set("nproc", static_cast<std::uint64_t>(
                         std::thread::hardware_concurrency()));
  stamp.set("threads_used", static_cast<std::uint64_t>(options.nproc));
  stamp.set("cpu_model", cpu_model());
  stamp.set("l2_cache", cache_size(2));
  stamp.set("l3_cache", cache_size(3));
  stamp.set("simd_path", PERFBENCH_SIMD_PATH);
  stamp.set("compiler", std::string(PERFBENCH_COMPILER_ID) + " " + __VERSION__);
  stamp.set("build_type", PERFBENCH_BUILD_TYPE);
  stamp.set("commit", options.commit.empty() ? "unknown" : options.commit);
  stamp.set("workload", options.workload);
  stamp.set("seed", options.seed);
  stamp.set("seconds", options.seconds);
  stamp.set("trace", options.trace);
  return stamp;
}

std::string canonical_result(const antdense::scenario::ScenarioResult& r) {
  JsonValue doc = r.to_json();
  doc.erase("elapsed_seconds");
  doc.erase("elapsed_ns");
  JsonValue spec = r.spec.to_json();
  spec.erase("threads");
  doc.set("spec", std::move(spec));
  return doc.dump(0);
}

double agent_rounds(const antdense::scenario::ScenarioSpec& resolved) {
  return static_cast<double>(resolved.agents) *
         static_cast<double>(resolved.rounds) *
         static_cast<double>(resolved.trials);
}

double registry_value(const JsonValue& snapshot, const std::string& key) {
  const JsonValue* item = snapshot.find(key);
  const JsonValue* value = item == nullptr ? nullptr : item->find("value");
  return value == nullptr ? 0.0 : value->as_double();
}

double registry_histogram_sum(const JsonValue& snapshot,
                              const std::string& key) {
  const JsonValue* item = snapshot.find(key);
  const JsonValue* sum = item == nullptr ? nullptr : item->find("sum");
  return sum == nullptr ? 0.0 : sum->as_double();
}

}  // namespace perfbench
