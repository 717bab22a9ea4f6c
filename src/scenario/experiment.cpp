#include "scenario/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <utility>

#include "core/density_estimator.hpp"
#include "core/property_frequency.hpp"
#include "obs/telemetry.hpp"
#include "rng/splitmix64.hpp"
#include "scenario/ball_density.hpp"
#include "scenario/dynamics_registry.hpp"
#include "sim/density_sim.hpp"
#include "sim/trajectory.hpp"
#include "sim/trial_runner.hpp"
#include "sim/walk_engine.hpp"
#include "stats/accumulator.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace antdense::scenario {

namespace {

ScenarioSummary summarize(const std::vector<double>& estimates,
                          double true_value, double eps) {
  stats::Accumulator acc;
  for (double e : estimates) {
    acc.add(e);
  }
  ScenarioSummary s;
  s.count = acc.count();
  s.mean = acc.mean();
  s.stddev = acc.sample_stddev();
  s.standard_error = acc.standard_error();
  s.min = acc.count() == 0 ? 0.0 : acc.min();
  s.max = acc.count() == 0 ? 0.0 : acc.max();
  std::uint64_t within = 0;
  for (double e : estimates) {
    if (std::fabs(e - true_value) <= eps * true_value) {
      ++within;
    }
  }
  s.within_eps = estimates.empty()
                     ? 0.0
                     : static_cast<double>(within) /
                           static_cast<double>(estimates.size());
  return s;
}

/// Round-grained progress tap for the single-walk workloads.  Its only
/// hook is end_round, which all three engines fire serially, and it
/// draws no randomness — so riding it alongside the workload observers
/// leaves every result stream bit-identical to the plain run.
struct RoundProgressObserver {
  RoundProgressObserver(const ProgressHooks& hooks, std::uint64_t total_rounds)
      : hooks_(hooks), total_(total_rounds) {
    stride_ = hooks.round_stride != 0
                  ? hooks.round_stride
                  : static_cast<std::uint32_t>(
                        std::max<std::uint64_t>(1, total_rounds / 64));
  }

  void end_round(std::uint32_t round) {
    if (hooks_.on_progress && (round % stride_ == 0 || round == total_)) {
      hooks_.on_progress(round, total_);
    }
  }

 private:
  const ProgressHooks& hooks_;
  std::uint64_t total_;
  std::uint32_t stride_;
};

/// Trial-grained progress tap for the fan-out workloads: one tick per
/// finished trial, reported from whichever worker ran it.
struct TrialProgress {
  TrialProgress(const ProgressHooks& hooks, std::uint64_t total_trials)
      : hooks_(hooks), total_(total_trials) {}

  std::function<void(std::size_t)> callback() {
    if (!hooks_.on_progress) {
      return {};
    }
    return [this](std::size_t) {
      hooks_.on_progress(done_.fetch_add(1, std::memory_order_relaxed) + 1,
                         total_);
    };
  }

 private:
  const ProgressHooks& hooks_;
  std::uint64_t total_;
  std::atomic<std::uint64_t> done_{0};
};

/// The one EngineMode -> execution-policy mapping: calls run(exec) with
/// the engine's policy.  `walk_threads` is the sharded engine's within-
/// walk width; trial fan-outs pass 1 and parallelize across trials.
template <typename RunFn>
void with_engine(EngineMode engine, unsigned walk_threads, RunFn&& run) {
  switch (engine) {
    case EngineMode::kSharded:
      run(sim::ShardExec{.threads = walk_threads});
      return;
    case EngineMode::kVector:
      run(sim::VectorExec{});
      return;
    case EngineMode::kSingleStream:
      break;
  }
  run(sim::SingleExec{});
}

sim::DensityConfig density_config(const ScenarioSpec& spec) {
  sim::DensityConfig cfg;
  cfg.num_agents = spec.agents;
  cfg.rounds = spec.rounds;
  cfg.lazy_probability = spec.lazy_probability;
  cfg.detection_miss_probability = spec.sensing.detection_miss;
  cfg.spurious_collision_probability = spec.sensing.spurious;
  cfg.observation_dropout_probability = spec.sensing.dropout;
  return cfg;
}

}  // namespace

util::JsonValue ScenarioSummary::to_json() const {
  util::JsonValue doc = util::JsonValue::object();
  doc.set("count", count);
  doc.set("mean", mean);
  doc.set("stddev", stddev);
  doc.set("standard_error", standard_error);
  doc.set("min", min);
  doc.set("max", max);
  doc.set("within_eps", within_eps);
  return doc;
}

double relative_error(double mean, double true_value) {
  return true_value == 0.0 ? std::fabs(mean)
                           : std::fabs(mean - true_value) / true_value;
}

util::JsonValue ScenarioResult::to_json() const {
  util::JsonValue doc = util::JsonValue::object();
  doc.set("schema", "antdense.scenario.v1");
  doc.set("spec", spec.to_json());
  doc.set("topology", topology_name);
  doc.set("num_nodes", num_nodes);
  doc.set("workload", workload_name(spec.workload));
  doc.set("rounds", spec.rounds);
  doc.set("true_value", true_value);
  doc.set("summary", summary.to_json());

  util::JsonValue estimates_doc = util::JsonValue::array();
  for (double e : estimates) {
    estimates_doc.push_back(e);
  }
  doc.set("estimates", std::move(estimates_doc));

  util::JsonValue checkpoints_doc = util::JsonValue::array();
  for (std::uint32_t c : checkpoints) {
    checkpoints_doc.push_back(c);
  }
  doc.set("checkpoints", std::move(checkpoints_doc));

  util::JsonValue series_doc = util::JsonValue::array();
  for (const auto& trace : series) {
    util::JsonValue trace_doc = util::JsonValue::array();
    for (double v : trace) {
      trace_doc.push_back(v);
    }
    series_doc.push_back(std::move(trace_doc));
  }
  doc.set("series", std::move(series_doc));

  doc.set("elapsed_seconds", elapsed_seconds);
  doc.set("elapsed_ns", elapsed_ns);
  return doc;
}

Experiment::Experiment(ScenarioSpec spec)
    : Experiment(std::move(spec), Registry::built_in()) {}

Experiment::Experiment(ScenarioSpec spec, const Registry& registry)
    : spec_(std::move(spec)), topo_(registry.make(spec_.topology)) {
  spec_.validate();
  spec_.topology = registry.canonical(spec_.topology);
  if (!spec_.dynamics.empty()) {
    // Canonicalize like the topology so journals and caches key on one
    // spelling; this is also where an unknown model is rejected.
    spec_.dynamics = DynamicsRegistry::built_in().canonical(spec_.dynamics);
    ANTDENSE_CHECK(spec_.workload == Workload::kDensity,
                   "dynamics models apply to the density workload only");
  }
  ANTDENSE_CHECK(spec_.workload == Workload::kDensity ||
                     !spec_.sensing.any(),
                 "sensing-noise knobs (miss, spurious, dropout) apply to "
                 "the density workload only");
  ANTDENSE_CHECK(spec_.trials == 1 ||
                     spec_.workload == Workload::kDensity ||
                     spec_.workload == Workload::kProperty,
                 "trials > 1 applies to the density and property "
                 "workloads only (trajectory and local-density record "
                 "one walk)");
  spec_.tracked = std::min(spec_.tracked, spec_.agents);
  if (spec_.rounds == 0) {
    const double density = static_cast<double>(spec_.agents - 1) /
                           static_cast<double>(topo_.num_nodes());
    spec_.rounds = core::plan_rounds(spec_.eps, spec_.delta, density,
                                     topo_.num_nodes());
  }
}

ScenarioResult Experiment::run() const { return run(ProgressHooks{}); }

ScenarioResult Experiment::run(const ProgressHooks& hooks) const {
  util::WallTimer timer;
  // Trace the whole workload as one span (RNG-neutral: a trace scope
  // observes wall time only).
  obs::Telemetry* telemetry = obs::ambient_telemetry();
  obs::SpanScope workload_span(
      telemetry != nullptr ? telemetry->trace : nullptr,
      workload_name(spec_.workload), "scenario");
  ScenarioResult result;
  result.spec = spec_;
  result.topology_name = topo_.name();
  result.num_nodes = topo_.num_nodes();
  result.true_value = static_cast<double>(spec_.agents - 1) /
                      static_cast<double>(topo_.num_nodes());

  const unsigned walk_threads = spec_.trials == 1 ? spec_.threads : 1;
  const sim::DensityConfig cfg = density_config(spec_);
  with_engine(spec_.engine, walk_threads, [&](const auto& exec) {
    switch (spec_.workload) {
      case Workload::kDensity: {
        // One run_density_walk call per seed on the walk stream (tag
        // 0x51).  A dynamic world gets a fresh model per call, so trials
        // stay independent and order-free.  One trial runs on the spec's
        // seed with the round-progress tap; fan-outs pool derived
        // per-trial seeds.
        const auto density_walk = [&](std::uint64_t seed, auto&... extra) {
          std::unique_ptr<sim::WorldDynamics> model;
          sim::DensityConfig walk_cfg = cfg;
          if (!spec_.dynamics.empty()) {
            model = DynamicsRegistry::built_in().make(spec_.dynamics, topo_,
                                                      spec_.agents);
            walk_cfg.dynamics = model.get();
          }
          return sim::run_density_walk(topo_, walk_cfg, seed, exec, nullptr,
                                       extra...)
              .estimates();
        };
        if (spec_.trials == 1) {
          RoundProgressObserver progress(hooks, spec_.rounds);
          result.estimates = density_walk(spec_.seed, progress);
        } else {
          TrialProgress progress(hooks, spec_.trials);
          result.estimates = sim::pool_trial_estimates(
              spec_.trials, spec_.agents, spec_.threads,
              [&](std::size_t trial) {
                return density_walk(rng::derive_seed(spec_.seed, trial));
              },
              progress.callback());
        }
        break;
      }

      case Workload::kProperty: {
        // One estimate_property_frequency call per trial (the spec's
        // seed for one trial, derived seeds for a fan-out).  Truth is
        // the frequency as seen by one agent among the agents-1 others.
        const auto num_property = static_cast<std::uint32_t>(
            std::lround(spec_.property_fraction * spec_.agents));
        result.true_value = static_cast<double>(num_property) /
                            static_cast<double>(spec_.agents - 1);
        TrialProgress progress(hooks, spec_.trials);
        result.estimates = sim::pool_trial_estimates(
            spec_.trials, spec_.agents, spec_.threads,
            [&](std::size_t trial) {
              const std::uint64_t trial_seed =
                  spec_.trials == 1 ? spec_.seed
                                    : rng::derive_seed(spec_.seed, trial);
              return core::estimate_property_frequency(
                         topo_, spec_.agents, num_property, spec_.rounds,
                         trial_seed, spec_.lazy_probability, exec)
                  .frequency_estimates;
            },
            progress.callback());
        break;
      }

      case Workload::kTrajectory: {
        result.checkpoints = spec_.checkpoint_rounds(spec_.rounds);
        RoundProgressObserver progress(hooks, result.checkpoints.back());
        result.series =
            sim::run_trajectory(topo_, spec_.agents, spec_.tracked,
                                result.checkpoints, spec_.seed,
                                spec_.lazy_probability, exec, progress)
                .estimates;
        for (const auto& trace : result.series) {
          result.estimates.push_back(trace.back());
        }
        break;
      }

      case Workload::kLocalDensity: {
        result.checkpoints = spec_.checkpoint_rounds(spec_.rounds);
        BallDensityObserver balls(topo_, spec_.radius, result.checkpoints,
                                  spec_.agents);
        sim::WalkConfig wcfg = cfg.walk_config();
        wcfg.rounds = result.checkpoints.back();
        RoundProgressObserver progress(hooks, wcfg.rounds);
        sim::run_walk(topo_, wcfg, rng::derive_seed(spec_.seed, 0x10Du),
                      exec, nullptr, balls, progress);
        const std::vector<std::vector<double>> densities =
            balls.take_densities();
        result.estimates = densities.back();
        result.series.resize(spec_.tracked);
        for (std::uint32_t a = 0; a < spec_.tracked; ++a) {
          result.series[a].reserve(densities.size());
          for (const auto& row : densities) {
            result.series[a].push_back(row[a]);
          }
        }
        break;
      }
    }
  });

  result.summary = summarize(result.estimates, result.true_value, spec_.eps);
  result.elapsed_seconds = timer.elapsed_seconds();
  result.elapsed_ns = timer.elapsed_nanos();
  return result;
}

}  // namespace antdense::scenario
