// sweep-churn: campaigns of a few hundred small density experiments over
// static and dynamic worlds, run back to back through
// campaign::run_campaign with one worker per core and aggregated at the
// end, the way antdense_sweep runs and summarizes a sweep.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <set>
#include <thread>

#include "campaign/aggregate.hpp"
#include "campaign/journal.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/spec.hpp"
#include "checks.hpp"
#include "inputs.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "scenario/dynamics_registry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using antdense::campaign::CampaignSpec;
using antdense::campaign::PlannedExperiment;
using antdense::util::JsonValue;

struct SweepPass {
  SetupSampler setup;            // parse + expand
  std::vector<double> expand_s;  // per repetition
  // Per timed campaign; most figures are medians over campaigns, so one
  // campaign a noisy neighbour slowed down does not move them.
  std::vector<double> wall_s;          // run + aggregate
  std::vector<double> agent_rounds;    // executed
  std::vector<double> experiments;     // executed
  std::vector<double> latency_p50_s;   // over the campaign's experiments
  std::vector<double> latency_p90_s;
  double run_wall_s = 0.0;  // run_campaign alone, summed
  std::uint64_t campaigns = 0;
  std::vector<double> planned_s;  // planned static torus2d, verdict met
  std::vector<double> aggregate_s;
  std::vector<double> engine_rounds = std::vector<double>(3, 0.0);
  double sharded_wall_s = 0.0;  // summed latency of sharded experiments
  std::vector<JsonValue> specs;          // expanded specs
  std::vector<std::string> results;      // journal records of one campaign
  std::string journal_path;              // the warm-up campaign's journal

  double median_rate(const std::vector<double>& work) const {
    std::vector<double> rates;
    for (std::size_t c = 0; c < wall_s.size(); ++c) {
      rates.push_back(work[c] / wall_s[c]);
    }
    return median(rates);
  }
};

const JsonValue& at(const JsonValue& doc, const std::string& dotted) {
  const JsonValue* node = &doc;
  std::size_t start = 0;
  while (true) {
    const std::size_t dot = dotted.find('.', start);
    node = node->find(dotted.substr(start, dot - start));
    if (node == nullptr) {
      throw std::runtime_error("journal record lacks " + dotted);
    }
    if (dot == std::string::npos) {
      return *node;
    }
    start = dot + 1;
  }
}

bool is_static(const JsonValue& record) {
  return at(record, "spec").find("dynamics") == nullptr;
}

std::string family_of(const JsonValue& record) {
  const std::string& topology = at(record, "spec.topology").as_string();
  return topology.substr(0, topology.find(':'));
}

bool planned_torus(const JsonValue& record) {
  return is_static(record) && at(record, "spec.rounds").as_double() == 0.0 &&
         family_of(record) == "torus2d";
}

/// The paper's claims about a campaign's records.  Static records of one
/// topology and agent count estimate one expectation whatever the engine,
/// seed or round budget, and are judged pooled; dynamic worlds have no
/// closed-form expectation and only need a finite, non-negative mean.
void check_records(const std::vector<JsonValue>& records, Tally& tally) {
  std::map<std::string, std::pair<MeanPool, double>> pools;  // + truth
  for (const JsonValue& record : records) {
    const double mean = at(record, "result.summary.mean").as_double();
    if (!is_static(record)) {
      tally.record(std::isfinite(mean) && mean >= 0.0,
                   "sweep " + at(record, "id").as_string() + ": bad mean");
      continue;
    }
    auto& [pool, truth] = pools[at(record, "spec.topology").as_string() +
                                " agents " +
                                at(record, "spec.agents").dump(0)];
    pool.add(mean, at(record, "result.summary.standard_error").as_double());
    truth = at(record, "result.true_value").as_double();
  }
  for (const auto& [key, entry] : pools) {
    const auto& [pool, truth] = entry;
    const std::string what = "sweep " + key + ": pooled mean " +
                             std::to_string(pool.mean()) + " truth " +
                             std::to_string(truth);
    if (key.rfind("rgg2d", 0) == 0) {
      tally.record(lemma2_lower_bound(pool.mean(), pool.reported_se(), truth),
                   what + ", below the collision-rate lower bound");
    } else {
      tally.record(lemma2_unbiased(pool.mean(), pool.reported_se(), truth),
                   what + ", Lemma 2");
    }
  }
}

/// Theorem 1's verdict through the campaign's own envelope check: each
/// (engine) group of static planned torus2d records, pooled over the
/// seed axis, must reach a mean within-eps fraction of 1 - delta.  One
/// small walk alone (1152 estimates) does not concentrate enough to be
/// judged by itself.
bool planned_envelopes_met(const std::vector<JsonValue>& records) {
  std::vector<JsonValue> planned;
  std::copy_if(records.begin(), records.end(), std::back_inserter(planned),
               planned_torus);
  const auto groups =
      antdense::campaign::aggregate(planned, {"spec.engine"}).groups;
  bool ok = groups.size() == 2;
  for (const auto& group : groups) {
    ok = ok && group.has_envelope && group.envelope_met;
  }
  return ok;
}

std::set<std::string> group_values(
    const std::vector<JsonValue>& records, const std::string& key) {
  std::set<std::string> values;
  const auto groups = antdense::campaign::aggregate(records, {key}).groups;
  for (const auto& group : groups) {
    values.insert(group.key.at(0));
  }
  return values;
}

/// Aggregates the journal by every axis and reports whether each axis
/// value the campaign declares shows up as a group.
bool aggregate_covers_axes(const std::vector<JsonValue>& records,
                           const JsonValue& campaign) {
  std::vector<JsonValue> dynamic;
  std::copy_if(records.begin(), records.end(), std::back_inserter(dynamic),
               [](const JsonValue& r) { return !is_static(r); });
  // Static records carry no "dynamics" key, so the aggregate cannot group
  // them by it: they are counted instead.
  bool ok = (records.size() - dynamic.size()) * sweep_dynamics().size() ==
            records.size();
  // Records carry the canonical spelling of each model.
  const std::set<std::string> dynamics = group_values(dynamic, "dynamics");
  const auto& models = antdense::scenario::DynamicsRegistry::built_in();
  for (const std::string& d : sweep_dynamics()) {
    ok = ok && (d.empty() || dynamics.count(models.canonical(d)) == 1);
  }
  for (const JsonValue& axis : campaign.find("axes")->items()) {
    const JsonValue* key = axis.find("key");
    if (key == nullptr || key->as_string() == "dynamics") {
      continue;
    }
    const std::string name =
        key->as_string() == "engine" ? "spec.engine" : key->as_string();
    const std::set<std::string> seen = group_values(records, name);
    for (const JsonValue& v : axis.find("values")->items()) {
      ok = ok && seen.count(v.is_string() ? v.as_string() : v.dump(0)) == 1;
    }
  }
  const std::set<std::string> families = group_values(records, "family");
  ok = ok && families == std::set<std::string>{"torus2d", "ring", "rgg2d"};
  return ok;
}

std::vector<std::string> journal_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

SweepPass sweep_pass(const Options& options, Tally& tally, double seconds,
                     antdense::obs::MetricsRegistry* metrics,
                     antdense::obs::TraceRecorder* spans) {
  namespace fs = std::filesystem;
  const JsonValue doc = sweep_campaign(options.seed, options.nproc);
  SweepPass pass;
  CampaignSpec campaign;
  std::vector<PlannedExperiment> planned;
  // One set-up: the campaign parsed and expanded into `*spec` and
  // `*plan`.  Returns its seconds.
  auto set_up = [&](CampaignSpec* spec, std::vector<PlannedExperiment>* plan) {
    const auto t0 = Clock::now();
    *spec = CampaignSpec::from_json(doc);
    const auto t1 = Clock::now();
    *plan = spec->expand();
    const auto t2 = Clock::now();
    pass.expand_s.push_back(std::chrono::duration<double>(t2 - t1).count());
    return std::chrono::duration<double>(t2 - t0).count();
  };
  set_up(&campaign, &planned);
  for (const PlannedExperiment& p : planned) {
    pass.specs.push_back(p.spec.to_json());
  }

  // Per-experiment latency: each worker runs its experiments one after
  // another, so the gap between two completions on one worker is the
  // later experiment's claim + run + journal time.
  std::map<std::thread::id, Clock::time_point> last_done;
  std::map<std::string, double> latency_by_id;
  antdense::campaign::RunOptions run_options;
  run_options.threads = options.nproc;
  run_options.inner_threads = 1;
  run_options.telemetry.metrics = metrics;
  auto run = [&](const std::string& journal) {
    const auto now = Clock::now();
    last_done.clear();
    latency_by_id.clear();
    // Workers are threads the scheduler has not started yet: seed every
    // future worker's clock with the campaign start.
    run_options.on_complete = [&, now](const PlannedExperiment& p, std::size_t,
                                       std::size_t) {
      const auto done = Clock::now();
      const auto it =
          last_done.try_emplace(std::this_thread::get_id(), now).first;
      latency_by_id[p.id] =
          std::chrono::duration<double>(done - it->second).count();
      it->second = done;
    };
    return antdense::campaign::run_campaign(campaign, journal, run_options);
  };
  auto tally_rounds = [&pass](const std::vector<JsonValue>& records) {
    double total = 0.0;
    for (const JsonValue& r : records) {
      const double rounds = at(r, "spec.agents").as_double() *
                            at(r, "result.rounds").as_double() *
                            at(r, "spec.trials").as_double();
      pass.engine_rounds[engine_index(at(r, "spec.engine").as_string())] +=
          rounds;
      total += rounds;
    }
    return total;
  };
  auto sharded_wall = [&](const std::vector<JsonValue>& records) {
    for (const JsonValue& r : records) {
      if (at(r, "spec.engine").as_string() == "sharded") {
        pass.sharded_wall_s += latency_by_id[at(r, "id").as_string()];
      }
    }
  };

  // Untimed warm-up campaign: the statistical checks and the reference
  // journal every later campaign must reproduce line for line.
  pass.journal_path = options.workdir + "/sweep-reference.jsonl";
  fs::remove(pass.journal_path);
  run(pass.journal_path);
  const std::vector<JsonValue> reference =
      antdense::campaign::Journal::load(pass.journal_path);
  tally_rounds(reference);
  sharded_wall(reference);
  tally.record(reference.size() == planned.size(),
               "sweep: journal holds " + std::to_string(reference.size()) +
                   " records for " + std::to_string(planned.size()) +
                   " planned experiments");
  check_records(reference, tally);
  tally.record(aggregate_covers_axes(reference, doc),
               "sweep: an axis value is missing from the aggregate");
  tally.record(planned_envelopes_met(reference),
               "sweep: Theorem 1 envelope not met");
  std::vector<std::string> reference_lines = journal_lines(pass.journal_path);
  pass.results = reference_lines;
  const std::set<std::string> expected(reference_lines.begin(),
                                       reference_lines.end());

  const std::string journal = options.workdir + "/sweep-run.jsonl";
  const auto start = Clock::now();
  while (seconds_since(start) < seconds) {
    fs::remove(journal);
    const auto t0 = Clock::now();
    antdense::campaign::RunReport report;
    {
      const antdense::obs::SpanScope span(spans, "run_campaign", "campaign");
      report = run(journal);
    }
    const double run_s = seconds_since(t0);
    const std::vector<JsonValue> records =
        antdense::campaign::Journal::load(journal);
    const auto t1 = Clock::now();
    bool covered = false;
    {
      const antdense::obs::SpanScope span(spans, "aggregate", "campaign");
      covered = aggregate_covers_axes(records, doc);
    }
    pass.aggregate_s.push_back(seconds_since(t1));
    pass.wall_s.push_back(seconds_since(t0));
    pass.run_wall_s += run_s;
    ++pass.campaigns;

    tally.record(covered && report.executed == planned.size(),
                 "sweep: campaign incomplete or aggregate lacks an axis");
    std::size_t matched = 0;
    for (const std::string& line : journal_lines(journal)) {
      const bool ok = expected.count(line) == 1;
      matched += ok ? 1 : 0;
      tally.record(ok, "sweep: journal record differs from the reference");
    }
    for (std::size_t missing = matched; missing < planned.size(); ++missing) {
      tally.record(false, "sweep: journal record missing");
    }
    pass.experiments.push_back(static_cast<double>(records.size()));
    pass.agent_rounds.push_back(tally_rounds(records));
    sharded_wall(records);
    std::vector<double> latencies;
    for (const JsonValue& r : records) {
      const double latency = latency_by_id[at(r, "id").as_string()];
      latencies.push_back(latency);
      if (planned_torus(r) &&
          theorem1_verdict(at(r, "result.summary.within_eps").as_double(),
                           at(r, "spec.delta").as_double())) {
        pass.planned_s.push_back(latency);
      }
    }
    pass.latency_p50_s.push_back(quantile(latencies, 0.5));
    pass.latency_p90_s.push_back(quantile(latencies, 0.9));

    pass.setup.offer(seconds_since(start), [&] {
      CampaignSpec spec;
      std::vector<PlannedExperiment> plan;
      return set_up(&spec, &plan);
    });
  }
  fs::remove(journal);
  return pass;
}

}  // namespace

void run_sweep(const Options& options, Tally& tally, Report& report) {
  check_thread_invariance(options, tally);
  if (!options.trace) {
    const SweepPass pass =
        sweep_pass(options, tally, options.seconds, nullptr, nullptr);
    report.set("agent_rounds_per_s", pass.median_rate(pass.agent_rounds),
               "1/s");
    report.set("time_to_eps_s", median(pass.planned_s), "s");
    report.set("experiments_per_s", pass.median_rate(pass.experiments), "1/s");
    report.set("req_latency_p50_ms", median(pass.latency_p50_s) * 1e3, "ms");
    report.set("req_latency_p90_ms", median(pass.latency_p90_s) * 1e3, "ms");
    report.set("setup_s", pass.setup.mean_s(), "s");
    report.sample("experiments",
                  static_cast<std::uint64_t>(std::accumulate(
                      pass.experiments.begin(), pass.experiments.end(), 0.0)));
    report.sample("campaigns", pass.campaigns);
    report.sample("planned", pass.planned_s.size());
    return;
  }

  const SweepPass plain =
      sweep_pass(options, tally, options.seconds / 2, nullptr, nullptr);
  antdense::obs::MetricsRegistry registry;
  antdense::obs::TraceRecorder spans;
  const SweepPass traced =
      sweep_pass(options, tally, options.seconds / 2, &registry, &spans);
  const JsonValue snapshot = registry.to_json();
  report.set("obs.trace_overhead",
             plain.median_rate(plain.agent_rounds) /
                 traced.median_rate(traced.agent_rounds),
             "ratio");
  // Experiments run single-threaded inside the workers.
  report_sim_layers(snapshot, traced.engine_rounds, traced.sharded_wall_s, 1,
                    tally, report);
  const double campaigns = static_cast<double>(traced.campaigns + 1);
  const double experiment_seconds = registry_histogram_sum(
      snapshot, "antdense_campaign_experiment_seconds");
  report.set("scenario.run_s", experiment_seconds / campaigns, "s");
  report.set("campaign.expand_s", median(traced.expand_s), "s");
  report.set("campaign.worker_busy_frac",
             experiment_seconds / campaigns /
                 (options.nproc * traced.run_wall_s /
                  static_cast<double>(traced.campaigns)),
             "ratio");
  report.set("campaign.journal_bytes",
             registry_value(snapshot,
                            "antdense_campaign_journal_bytes_total") /
                 campaigns,
             "bytes");
  report.set("campaign.aggregate_s", median(traced.aggregate_s), "s");

  // Journal append, replayed: every record of one campaign into a fresh
  // journal.
  std::vector<double> append_s;
  const std::string replay = options.workdir + "/sweep-append.jsonl";
  const std::vector<JsonValue> records =
      antdense::campaign::Journal::load(traced.journal_path);
  for (int rep = 0; rep < 3; ++rep) {
    std::filesystem::remove(replay);
    antdense::campaign::Journal journal(replay);
    const auto t0 = Clock::now();
    for (const JsonValue& record : records) {
      journal.append(record);
    }
    append_s.push_back(seconds_since(t0));
  }
  std::filesystem::remove(replay);
  report.set("campaign.journal_append_s", median(append_s), "s");

  LayerInputs inputs;
  inputs.specs = traced.specs;
  inputs.results = traced.results;
  probe_layers(options, inputs, tally, report);
}

}  // namespace perfbench
