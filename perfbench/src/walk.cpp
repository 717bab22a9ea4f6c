// walk-regular: a closed loop of density experiments run back to back
// through scenario::Experiment, the way antdense_run serves one spec
// after another.
#include <memory>

#include "checks.hpp"
#include "inputs.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "scenario/experiment.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using antdense::obs::SpanScope;
using antdense::scenario::Experiment;
using antdense::scenario::Registry;
using antdense::scenario::ScenarioResult;
using antdense::scenario::ScenarioSpec;

struct WalkPass {
  SetupSampler setup;               // parse + construct of the list
  std::vector<double> parse_s;      // per repetition
  std::vector<double> construct_s;  // per repetition
  std::vector<double> work;         // agent-rounds of each experiment
  std::vector<std::vector<double>> latency_s;  // timed, per experiment
  std::vector<double> planned_s;  // timed planned requests passing verdict
  std::uint64_t requests = 0;     // timed
  double run_s = 0.0;             // timed, summed
  double serialize_s = 0.0;       // timed, summed
  std::vector<double> engine_rounds = std::vector<double>(3, 0.0);
  double sharded_wall_s = 0.0;  // every sharded run inside the pass
  std::vector<std::string> results;  // one canonical document per input

  /// Each experiment at its median latency over the run: one pass over
  /// the list as a steady host would run it.  Robust to the odd request
  /// a noisy neighbour slowed down.
  std::vector<double> typical_latency() const {
    std::vector<double> out;
    for (const auto& samples : latency_s) {
      out.push_back(median(samples));
    }
    return out;
  }
  double typical_pass_s() const {
    double total = 0.0;
    for (const double s : typical_latency()) {
      total += s;
    }
    return total;
  }
  double agent_rounds_per_s() const {
    double total = 0.0;
    for (const double w : work) {
      total += w;
    }
    return total / typical_pass_s();
  }
};

/// Checks one result against what the paper says about it.
void check_result(const WalkInput& input, const ScenarioResult& result,
                  Tally& tally) {
  const auto& s = result.summary;
  const std::string what = input.family + "/" +
                           antdense::scenario::engine_mode_name(
                               result.spec.engine) +
                           (input.planned ? " planned" : "");
  if (input.planned) {
    tally.record(theorem1_verdict(s.within_eps, result.spec.delta),
                 what + ": Theorem 1 verdict, within_eps " +
                     std::to_string(s.within_eps));
  }
  tally.record(lemma2_unbiased(s.mean, s.standard_error, result.true_value),
               what + ": Lemma 2, mean " + std::to_string(s.mean) + " truth " +
                   std::to_string(result.true_value));
}

WalkPass walk_pass(const Options& options, Tally& tally, double seconds,
                   antdense::obs::Telemetry* telemetry) {
  const Registry& registry = Registry::built_in();
  const std::vector<WalkInput> inputs =
      walk_inputs(options.seed, options.nproc);
  antdense::obs::TraceRecorder* spans =
      telemetry == nullptr ? nullptr : telemetry->trace;
  // The engines see metrics only: per-round phase spans would swamp the
  // trace ring and tax the walk the histograms are measuring.
  antdense::obs::Telemetry engine_telemetry;
  if (telemetry != nullptr) {
    engine_telemetry.metrics = telemetry->metrics;
  }
  const antdense::obs::ScopedTelemetry ambient(&engine_telemetry);
  WalkPass pass;

  // One set-up of the whole list: every spec parsed and validated, and
  // an Experiment constructed on it.  Returns the seconds it took.  Each
  // experiment replaces its predecessor, which goes before the new one is
  // built, so set-up samples never hold two copies of the list's graphs
  // and the peak RSS stays the workload's.
  std::vector<std::unique_ptr<Experiment>> experiments(inputs.size());
  auto set_up = [&] {
    double parse = 0.0;
    double construct = 0.0;
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      const WalkInput& input = inputs[k];
      experiments[k].reset();
      const auto t0 = Clock::now();
      ScenarioSpec spec;
      {
        const SpanScope span(spans, "parse", "scenario");
        spec = ScenarioSpec::from_json(input.spec);
        spec.validate();
      }
      const auto t1 = Clock::now();
      {
        const SpanScope span(spans, "experiment-setup", "scenario");
        experiments[k] =
            std::make_unique<Experiment>(std::move(spec), registry);
      }
      const auto t2 = Clock::now();
      parse += std::chrono::duration<double>(t1 - t0).count();
      construct += std::chrono::duration<double>(t2 - t1).count();
    }
    pass.parse_s.push_back(parse);
    pass.construct_s.push_back(construct);
    return parse + construct;
  };
  set_up();

  auto run_one = [&](std::size_t k, double* run_s) -> ScenarioResult {
    const auto t0 = Clock::now();
    ScenarioResult result;
    {
      const SpanScope span(spans, "run", "scenario");
      result = experiments[k]->run();
    }
    *run_s = seconds_since(t0);
    pass.engine_rounds[engine_index(engine_mode_name(result.spec.engine))] +=
        agent_rounds(result.spec);
    if (result.spec.engine == antdense::scenario::EngineMode::kSharded) {
      pass.sharded_wall_s += *run_s;
    }
    return result;
  };

  // Untimed warm-up: one run of every experiment, which is also where
  // the statistical checks happen (results are deterministic, so every
  // later run, on whichever set-up, must reproduce these bytes exactly).
  std::vector<ScenarioResult> warm(inputs.size());
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    double run_s = 0.0;
    warm[k] = run_one(k, &run_s);
    pass.results.push_back(canonical_result(warm[k]));
    pass.work.push_back(agent_rounds(warm[k].spec));
    check_result(inputs[k], warm[k], tally);
  }
  // Whole passes over the list, so every experiment gets its share, and
  // set-up samples between them.
  pass.latency_s.resize(inputs.size());
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i % inputs.size() != 0 || seconds_since(start) < seconds; ++i) {
    const std::size_t k = i % inputs.size();
    double run_s = 0.0;
    const ScenarioResult result = run_one(k, &run_s);
    const auto t1 = Clock::now();
    std::string bytes;
    {
      const SpanScope span(spans, "serialize", "scenario");
      bytes = canonical_result(result);
    }
    const double serialize_s = seconds_since(t1);
    const std::string diff = payload_mismatch(pass.results[k], bytes);
    tally.record(diff.empty(), inputs[k].family + ": rerun " + diff);
    const double latency = run_s + serialize_s;
    ++pass.requests;
    pass.latency_s[k].push_back(latency);
    pass.run_s += run_s;
    pass.serialize_s += serialize_s;
    if (inputs[k].planned &&
        theorem1_verdict(result.summary.within_eps, result.spec.delta)) {
      pass.planned_s.push_back(latency);
    }
    if (k + 1 == inputs.size()) {
      pass.setup.offer(seconds_since(start), set_up);
    }
  }
  return pass;
}

}  // namespace

void run_walk(const Options& options, Tally& tally, Report& report) {
  check_thread_invariance(options, tally);
  if (!options.trace) {
    const WalkPass pass = walk_pass(options, tally, options.seconds, nullptr);
    const double per_s = 1.0 / pass.typical_pass_s();
    report.set("agent_rounds_per_s", pass.agent_rounds_per_s(), "1/s");
    report.set("time_to_eps_s", median(pass.planned_s), "s");
    report.set("experiments_per_s", pass.work.size() * per_s, "1/s");
    report_latency(report, "req_latency", pass.typical_latency());
    report.set("setup_s", pass.setup.mean_s(), "s");
    report.sample("requests", pass.requests);
    report.sample("planned", pass.planned_s.size());
    return;
  }

  const WalkPass plain =
      walk_pass(options, tally, options.seconds / 2, nullptr);
  antdense::obs::MetricsRegistry registry;
  antdense::obs::TraceRecorder spans;
  antdense::obs::Telemetry telemetry{&registry, &spans};
  const WalkPass traced =
      walk_pass(options, tally, options.seconds / 2, &telemetry);
  report.set("obs.trace_overhead",
             plain.agent_rounds_per_s() / traced.agent_rounds_per_s(),
             "ratio");
  report_sim_layers(registry.to_json(), traced.engine_rounds,
                    traced.sharded_wall_s, options.nproc, tally, report);
  report.set("scenario.parse_s", median(traced.parse_s), "s");
  report.set("scenario.experiment_setup_s", median(traced.construct_s), "s");
  // Per pass over the experiment list, so the figure does not depend on
  // how many requests fit into the window.
  const double per_list = static_cast<double>(traced.results.size()) /
                          static_cast<double>(traced.requests);
  report.set("scenario.run_s", traced.run_s * per_list, "s");
  report.set("scenario.serialize_s", traced.serialize_s * per_list, "s");

  LayerInputs inputs;
  for (const WalkInput& input : walk_inputs(options.seed, options.nproc)) {
    inputs.specs.push_back(input.spec);
  }
  inputs.results = traced.results;
  probe_layers(options, inputs, tally, report);
}

}  // namespace perfbench
