#include "bench_json.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "util/check.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace antdense::bench {

void time_paths(const std::vector<TimedPath>& paths, std::uint64_t agents,
                std::uint64_t rounds, int reps) {
  const double agent_rounds =
      static_cast<double>(agents) * static_cast<double>(rounds);
  for (const TimedPath& path : paths) {
    *path.ns = 1e300;
  }
  for (int rep = 0; rep < reps; ++rep) {
    for (const TimedPath& path : paths) {
      util::WallTimer timer;
      path.run(static_cast<std::uint64_t>(rep));
      const double ns = timer.elapsed_seconds() * 1e9 / agent_rounds;
      *path.ns = std::min(*path.ns, ns);
    }
  }
}

void print_banner(const std::string& bench_id, const std::string& subject,
                  const std::string& acceptance) {
  std::cout << "# " << bench_id << " — " << subject << "\n\n";
  std::cout << "Acceptance (shape, not constants): " << acceptance << "\n";
}

void reset_peak_rss() {
  // Linux: writing 5 to clear_refs resets VmHWM to the current RSS.
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (clear_refs) {
    clear_refs << "5";
  }
}

std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;  // "VmHWM:  1234 kB"
    }
  }
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

namespace {

/// The first "model name" of /proc/cpuinfo, else "unknown".
std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      const std::size_t begin = line.find_first_not_of(" \t", colon + 1);
      if (begin != std::string::npos) {
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

#if defined(__AVX2__)
constexpr const char* kSimdPath = "avx2";
#else
constexpr const char* kSimdPath = "portable";
#endif

}  // namespace

std::string to_json(const std::vector<BenchRecord>& records) {
  const std::string cpu = cpu_model();
  util::JsonValue doc = util::JsonValue::array();
  for (const BenchRecord& r : records) {
    ANTDENSE_CHECK(std::isfinite(r.ns_per_agent_round),
                   "bench timing must be finite");
    util::JsonValue rec = util::JsonValue::object();
    rec.set("name", r.name);
    rec.set("topology", r.topology);
    rec.set("agents", r.agents);
    rec.set("rounds", r.rounds);
    rec.set("ns_per_agent_round", r.ns_per_agent_round);
    if (r.threads != 0) {
      rec.set("threads", r.threads);
    }
    if (r.hardware_threads != 0) {
      rec.set("hardware_threads", r.hardware_threads);
    }
    if (r.peak_rss_bytes != 0) {
      rec.set("peak_rss_bytes", r.peak_rss_bytes);
    }
    rec.set("cpu_model", cpu);
    rec.set("simd_path", kSimdPath);
    doc.push_back(std::move(rec));
  }
  return doc.dump() + "\n";
}

void write_json(const std::string& path,
                const std::vector<BenchRecord>& records) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("bench_json: cannot open " + path +
                             " for writing");
  }
  out << to_json(records);
  if (!out.good()) {
    throw std::runtime_error("bench_json: write to " + path + " failed");
  }
}

}  // namespace antdense::bench
