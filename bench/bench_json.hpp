// Machine-readable bench output: a flat list of timing records
// serialized as a JSON array, so CI can archive per-commit perf
// artifacts (BENCH_*.json) and trend them.
//
// Schema (one object per record):
//   { "name": str,                 // which stepping path, e.g. "engine"
//     "topology": str,             // Topology::name()
//     "agents": int,
//     "rounds": int,
//     "ns_per_agent_round": float,
//     "threads": int,              // optional: worker threads used
//     "hardware_threads": int,     // optional: cores on the bench host
//     "peak_rss_bytes": int,       // optional: process high-water RSS
//     "cpu_model": str,            // the host CPU: /proc/cpuinfo's first
//                                  //   "model name", else "unknown"
//     "simd_path": str }           // "avx2" when built with __AVX2__
//                                  //   (-DANTDENSE_AVX2=ON), else "portable"
//
// The optional fields (emitted only when a bench sets them nonzero)
// let multi-threaded benches like bench_shard record how wide they ran
// and how wide the host was — a "sharded/t8" row on a 4-core CI runner
// or a 1-core container is meaningless without them — and let benches
// over implicit topologies record the resident-set high-water mark, the
// number that proves an O(agents)-memory substrate stayed that way.
// cpu_model and simd_path are stamped on every record, so an artifact
// says which machine and which kernel build its timings came from.
// peak_rss_bytes is the resident-set high-water mark since the bench
// last called reset_peak_rss() — per cell on Linux, where VmHWM can be
// reset; elsewhere it is the getrusage lifetime mark, monotone across
// records.
//
// Serialization rides on the shared in-repo writer (util/json.hpp) — no
// external JSON dependency — which escapes strings and rejects
// non-finite numbers so the output always parses.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace antdense::bench {

struct BenchRecord {
  std::string name;
  std::string topology;
  std::uint64_t agents = 0;
  std::uint64_t rounds = 0;
  double ns_per_agent_round = 0.0;
  std::uint64_t threads = 0;           // 0 = not recorded
  std::uint64_t hardware_threads = 0;  // 0 = not recorded
  std::uint64_t peak_rss_bytes = 0;    // 0 = not recorded
};

/// One timed stepping path of a bench cell: `run(rep)` performs one
/// whole walk, seeded from the rep index, and `*ns` receives the path's
/// best ns/agent-round.
struct TimedPath {
  double* ns = nullptr;
  std::function<void(std::uint64_t rep)> run;
};

/// Times every path of one cell, best-of-`reps`, with the reps
/// interleaved: rep r runs each path once, in order, before rep r+1
/// starts.  A burst of host noise then costs one rep of several paths
/// rather than every rep of one path, so best-of filters it out of the
/// ratios the perf gates compare.
void time_paths(const std::vector<TimedPath>& paths, std::uint64_t agents,
                std::uint64_t rounds, int reps);

/// Prints the standard bench banner: id, what is measured, and what
/// the numbers should show.
void print_banner(const std::string& bench_id, const std::string& subject,
                  const std::string& acceptance);

/// Resets the peak-resident-set mark to the current RSS where the
/// platform allows it (Linux /proc/self/clear_refs); a no-op elsewhere.
void reset_peak_rss();

/// Peak resident set in bytes since the last reset_peak_rss() (Linux
/// VmHWM), else the getrusage lifetime mark, or 0 when the platform
/// cannot report it.
std::uint64_t peak_rss_bytes();

/// Serializes the records as a pretty-printed JSON array, stamping each
/// with the host's cpu_model and simd_path (see the schema).  Throws
/// std::invalid_argument on non-finite timings (never emits NaN/Inf).
std::string to_json(const std::vector<BenchRecord>& records);

/// Writes to_json(records) to `path`, throwing std::runtime_error if the
/// file cannot be written.
void write_json(const std::string& path,
                const std::vector<BenchRecord>& records);

}  // namespace antdense::bench
