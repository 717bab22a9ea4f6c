// The workloads and the per-layer probes they share.
//
// Each workload function fills `report` with the end-to-end metrics
// (options.trace false) or the per-layer metrics (options.trace true).
// A traced run measures one untraced pass and one traced pass of half
// the time each — their throughput ratio is obs.trace_overhead — and
// then probes each layer's public functions on the workload's own
// inputs and outputs.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "util/json.hpp"

namespace perfbench {

void run_walk(const Options& options, Tally& tally, Report& report);
void run_sweep(const Options& options, Tally& tally, Report& report);

/// What the probes replay: the workload's spec documents and result
/// documents.
struct LayerInputs {
  std::vector<antdense::util::JsonValue> specs;
  std::vector<std::string> results;  // compact JSON result documents
};

/// Probes shared by every workload: scenario parse / identity / setup,
/// graph build and per-family step cost, the sharded speedup, serve
/// framing and cache, JSON throughput, and two seconds of serve-mix
/// traffic for the daemon's cache counters and warm start.
void probe_layers(const Options& options, const LayerInputs& inputs,
                  Tally& tally, Report& report);

/// Two seconds of serve-mix traffic: sets serve.hits.*, serve.executions,
/// serve.errors and serve.warm_load_s, and runs serve-mix's checks.
void probe_daemon(const Options& options, Tally& tally, Report& report);

/// Once per run: the workload's small sharded spec must give the same
/// canonical bytes at 1 thread and at options.nproc threads.
void check_thread_invariance(const Options& options, Tally& tally);

/// Sets every sim.* layer metric from an engine-telemetry snapshot
/// (antdense_engine_* instruments) and checks each engine's agent-round
/// counter against the benchmark's own tally.  `busy_wall_s` is the
/// wall time of the sharded runs the snapshot covers (0 = unknown).
void report_sim_layers(const antdense::util::JsonValue& snapshot,
                       const std::vector<double>& tally_by_engine,
                       double sharded_wall_s, unsigned threads,
                       Tally& tally, Report& report);

/// Engine order of tally_by_engine.
inline const std::vector<std::string>& engine_names() {
  static const std::vector<std::string> names = {"single", "sharded",
                                                 "vector"};
  return names;
}
std::size_t engine_index(const std::string& engine);

/// Percentiles of a latency sample in milliseconds.
void report_latency(Report& report, const std::string& prefix,
                    const std::vector<double>& seconds);

}  // namespace perfbench
