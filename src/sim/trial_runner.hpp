// Multi-trial Monte Carlo drivers.
//
// Two sampling disciplines:
//   - collect_all_agent_estimates: pools every agent's estimate from each
//     trial.  Matches the paper's multi-agent viewpoint (Theorem 1 holds
//     per agent; the union-bound remark covers all agents), but estimates
//     within one trial are mildly correlated.
//   - collect_single_agent_estimates: keeps only agent 0 per trial,
//     giving fully independent samples for tail estimation.
// Trials are parallelized; each trial's seed derives from its index, so
// output is identical for any thread count.  collect_all_agent_estimates
// takes the engine's execution policy; pass ShardExec{.threads = 1} to
// keep parallelism at the trial level (by the sharded engine's
// thread-count invariance the estimates are identical either way).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/topology.hpp"
#include "obs/telemetry.hpp"
#include "rng/splitmix64.hpp"
#include "sim/density_sim.hpp"
#include "util/parallel.hpp"

namespace antdense::sim {

/// Shared trial fan-out: runs run_trial(trial) -> per-agent estimates in
/// parallel and concatenates the results in trial order.  When set,
/// `on_trial_done(trial)` fires from the worker that finished that trial
/// (concurrently across workers) — a progress tap, never part of the
/// result.
template <typename RunTrialFn>
std::vector<double> pool_trial_estimates(
    std::uint32_t trials, std::uint32_t num_agents, unsigned threads,
    RunTrialFn&& run_trial,
    const std::function<void(std::size_t)>& on_trial_done = {}) {
  std::vector<std::vector<double>> per_trial(trials);
  // Captured on the caller thread and re-installed per worker so
  // engine taps fire inside each trial (telemetry never affects the
  // estimates — trials are seeded by index, not by thread).
  obs::Telemetry* telemetry = obs::ambient_telemetry();
  util::parallel_for(
      trials,
      [&](std::size_t trial) {
        obs::ScopedTelemetry ambient(telemetry);
        per_trial[trial] = run_trial(trial);
        if (on_trial_done) {
          on_trial_done(trial);
        }
      },
      threads);
  std::vector<double> all;
  all.reserve(static_cast<std::size_t>(trials) * num_agents);
  for (const auto& v : per_trial) {
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

template <graph::Topology T, ExecPolicy Exec = SingleExec>
std::vector<double> collect_all_agent_estimates(
    const T& topo, const DensityConfig& cfg, std::uint64_t root_seed,
    std::uint32_t trials, unsigned threads = 0, const Exec& exec = {}) {
  return pool_trial_estimates(
      trials, cfg.num_agents, threads, [&](std::size_t trial) {
        return run_density_walk(topo, cfg,
                                rng::derive_seed(root_seed, trial), exec)
            .estimates();
      });
}

template <graph::Topology T>
std::vector<double> collect_single_agent_estimates(const T& topo,
                                                   const DensityConfig& cfg,
                                                   std::uint64_t root_seed,
                                                   std::uint32_t trials,
                                                   unsigned threads = 0) {
  return pool_trial_estimates(trials, 1, threads, [&](std::size_t trial) {
    const DensityResult r =
        run_density_walk(topo, cfg, rng::derive_seed(root_seed, trial));
    return std::vector<double>{
        static_cast<double>(r.collision_counts[0]) / r.rounds};
  });
}

}  // namespace antdense::sim
