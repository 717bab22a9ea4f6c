#include "campaign/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <set>
#include <utility>
#include <vector>

#include "campaign/journal.hpp"
#include "scenario/experiment.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace antdense::campaign {

RunReport run_campaign(const CampaignSpec& campaign,
                       const std::string& journal_path,
                       const RunOptions& options,
                       const scenario::Registry& registry) {
  util::WallTimer timer;
  RunReport report;

  std::vector<PlannedExperiment> planned = campaign.expand(registry);
  report.planned = planned.size();

  const std::vector<util::JsonValue> existing = Journal::load(journal_path);
  for (const util::JsonValue& record : existing) {
    const util::JsonValue* name = record.find("campaign");
    ANTDENSE_CHECK(name != nullptr && name->is_string() &&
                       name->as_string() == campaign.name,
                   "journal " + journal_path + " belongs to campaign '" +
                       (name != nullptr && name->is_string()
                            ? name->as_string()
                            : std::string("?")) +
                       "', not '" + campaign.name + "'");
  }
  const std::set<std::string> done = Journal::completed_ids(existing);

  std::vector<PlannedExperiment> pending;
  pending.reserve(planned.size());
  for (PlannedExperiment& p : planned) {
    if (done.count(p.id) > 0) {
      ++report.cached;
    } else {
      pending.push_back(std::move(p));
    }
  }
  if (options.max_experiments > 0 &&
      pending.size() > options.max_experiments) {
    report.remaining = pending.size() - options.max_experiments;
    pending.resize(options.max_experiments);
  }

  // Telemetry sinks are resolved once, up front; the workers then only
  // touch striped counters and gauges.  All of this is RNG-neutral —
  // experiments compute the same bytes with or without it.
  obs::Telemetry telemetry = options.telemetry;
  obs::Counter* experiments_total = nullptr;
  obs::Counter* journal_bytes = nullptr;
  obs::Gauge* scheduled_gauge = nullptr;
  obs::Gauge* completed_gauge = nullptr;
  obs::Gauge* queue_depth = nullptr;
  obs::Histogram* experiment_seconds = nullptr;
  if (telemetry.metrics != nullptr) {
    obs::MetricsRegistry& reg = *telemetry.metrics;
    experiments_total =
        &reg.counter("antdense_campaign_experiments_total", {},
                     "Experiments executed and journaled");
    journal_bytes = &reg.counter("antdense_campaign_journal_bytes_total", {},
                                 "Bytes appended to the campaign journal");
    scheduled_gauge = &reg.gauge("antdense_campaign_scheduled", {},
                                 "Experiments scheduled this invocation");
    completed_gauge = &reg.gauge("antdense_campaign_completed", {},
                                 "Experiments completed this invocation");
    queue_depth = &reg.gauge("antdense_campaign_queue_depth", {},
                             "Scheduled experiments not yet completed");
    experiment_seconds =
        &reg.histogram("antdense_campaign_experiment_seconds", {}, {},
                       "Wall time per experiment (seconds)");
    scheduled_gauge->set(static_cast<std::int64_t>(pending.size()));
    queue_depth->set(static_cast<std::int64_t>(pending.size()));
  }

  if (pending.empty()) {
    report.elapsed_seconds = timer.elapsed_seconds();
    return report;
  }

  Journal journal(journal_path);

  // The scheduler owns the thread budget: workers x inner_threads is
  // kept within the hardware so campaigns cannot silently oversubscribe
  // (experiment results never depend on either knob, so clamping is
  // always safe).  Diagnostics go to on_diagnostic rather than a
  // hard error: a campaign authored on a 32-core box should still run,
  // clamped and loudly, on a 4-core one.
  const unsigned hardware = util::default_thread_count();
  unsigned inner = std::max(1u, options.inner_threads);
  if (inner > hardware) {
    if (options.on_diagnostic) {
      options.on_diagnostic(
          "campaign '" + campaign.name + "': inner_threads=" +
          std::to_string(inner) + " exceeds hardware_concurrency=" +
          std::to_string(hardware) + "; clamping to " +
          std::to_string(hardware));
    }
    inner = hardware;
  }
  unsigned threads =
      options.threads != 0 ? options.threads : campaign.threads;
  if (threads == 0) {
    threads = hardware / inner;  // one worker per free core
  }
  threads = std::max(1u, threads);
  if (threads * inner > hardware) {
    if (inner > 1) {
      // Within-experiment threads multiply per worker, so the budget is
      // enforced by shrinking the worker pool.
      const unsigned clamped = std::max(1u, hardware / inner);
      if (options.on_diagnostic) {
        options.on_diagnostic(
            "campaign '" + campaign.name + "': " + std::to_string(threads) +
            " worker(s) x " + std::to_string(inner) +
            " thread(s) per experiment exceeds hardware_concurrency=" +
            std::to_string(hardware) + "; clamping workers to " +
            std::to_string(clamped));
      }
      threads = clamped;
    } else if (options.on_diagnostic) {
      // Plain worker oversubscription stays allowed (it is harmless,
      // and differential tests rely on running N workers on fewer
      // cores) — but it is no longer silent.
      options.on_diagnostic(
          "campaign '" + campaign.name + "': " + std::to_string(threads) +
          " worker(s) exceed hardware_concurrency=" +
          std::to_string(hardware) + "; running oversubscribed");
    }
  }

  std::atomic<std::size_t> completed{0};
  std::mutex progress_mutex;

  util::parallel_for(
      pending.size(),
      [&](std::size_t i) {
        const PlannedExperiment& p = pending[i];
        // Workers never inherit the caller's thread-local ambient
        // telemetry, so install the campaign's bundle here — engine
        // taps inside the experiment then record into the shared
        // striped sinks.
        obs::ScopedTelemetry ambient(&telemetry);
        obs::SpanScope span(telemetry.trace, "experiment", "campaign");
        if (telemetry.trace != nullptr) {
          span.set_args("{\"id\":\"" + util::json_escape(p.id) + "\"}");
        }
        util::WallTimer experiment_timer;
        // Experiment-level parallelism comes from the workers;
        // within-experiment parallelism from inner_threads.  Either
        // way the result is the same — thread counts are resource
        // knobs, never part of an experiment's identity.
        scenario::ScenarioSpec spec = p.spec;
        spec.threads = inner;
        const scenario::ScenarioResult result =
            scenario::Experiment(std::move(spec), registry).run();
        std::size_t appended;
        {
          const obs::SpanScope journal_span(telemetry.trace,
                                            "journal-append", "campaign");
          appended = journal.append(make_record(p, result, campaign.name));
        }
        const std::size_t done_now =
            completed.fetch_add(1, std::memory_order_relaxed) + 1;
        if (experiment_seconds != nullptr) {
          experiment_seconds->observe(experiment_timer.elapsed_seconds());
          experiments_total->add(1);
          journal_bytes->add(appended);
          completed_gauge->set(static_cast<std::int64_t>(done_now));
          queue_depth->set(
              static_cast<std::int64_t>(pending.size() - done_now));
        }
        if (options.on_complete) {
          std::lock_guard<std::mutex> lock(progress_mutex);
          options.on_complete(p, done_now, pending.size());
        }
      },
      threads, options.should_stop);

  report.executed = completed.load();
  // Experiments neither journaled before this invocation, capped away,
  // nor executed now are remaining — nonzero exactly when should_stop
  // (or the cap above) cut the run short, which is what drives
  // antdense_sweep's interrupted exit code.
  report.remaining += pending.size() - report.executed;
  report.elapsed_seconds = timer.elapsed_seconds();
  return report;
}

RunReport run_campaign(const CampaignSpec& campaign,
                       const std::string& journal_path,
                       const RunOptions& options) {
  return run_campaign(campaign, journal_path, options,
                      scenario::Registry::built_in());
}

}  // namespace antdense::campaign
