// The campaign scheduler: expands a CampaignSpec, subtracts the
// experiments its journal already holds, and runs the remainder through
// util::parallel_for (one util::WorkerPool for the run, the calling
// thread among its workers), journaling each experiment the moment it
// completes.
//
// Determinism contract: every experiment runs single-threaded inside a
// worker with a seed derived from (campaign seed, spec identity hash) at
// expansion time — so its result depends only on its spec, never on
// which worker ran it, in what order, or how many workers exist.  The
// journal is therefore bit-identical (modulo record order) across
// thread counts and across any interrupt/resume split, which is what
// makes "re-run the same command" the entire resume story.
//
// Paper: Musco, Su & Lynch (PODC 2016, arXiv:1603.02981).
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "campaign/spec.hpp"
#include "obs/telemetry.hpp"
#include "scenario/registry.hpp"

namespace antdense::campaign {

struct RunOptions {
  /// Scheduler workers; 0 falls back to the campaign's `threads`, and 0
  /// there means one per core.
  unsigned threads = 0;
  /// Threads handed to each experiment (ScenarioSpec::threads while it
  /// runs) — within-experiment parallelism, which pays off for
  /// `engine=sharded` specs or trial fan-outs.  When inner_threads > 1
  /// the scheduler keeps workers x inner_threads within
  /// hardware_concurrency by shrinking the worker pool, reporting
  /// through on_diagnostic; plain worker oversubscription (inner == 1)
  /// stays allowed but is reported too.  Results are unaffected either
  /// way (threads never changes what an experiment computes).  0 or 1 =
  /// the historical single-threaded-experiment regime.
  unsigned inner_threads = 1;
  /// Cap on experiments *executed* this invocation (0 = no cap).  The
  /// journal keeps what ran, so a capped run is exactly an interrupted
  /// one — the tier-1 `app_campaign` check (tests/app_checks.py)
  /// resumes from it deterministically.
  std::size_t max_experiments = 0;
  /// Called after each experiment's record is journaled, with how many
  /// of this invocation's experiments are done.  Serialized; may print.
  std::function<void(const PlannedExperiment&, std::size_t done,
                     std::size_t scheduled)>
      on_complete;
  /// Receives human-readable scheduling diagnostics (currently: the
  /// thread-budget clamp message when a campaign asks for more total
  /// threads than the hardware has).  Unset = diagnostics are dropped.
  std::function<void(const std::string&)> on_diagnostic;
  /// Cooperative cancellation, polled before each experiment starts
  /// (util::parallel_for's should_stop).
  /// Wire util::termination_requested here and SIGINT/SIGTERM turn into
  /// a clean interrupt: in-flight experiments finish and journal, the
  /// rest count as `remaining`, and the journal tail stays whole — so
  /// the resume story is identical to a --max-experiments cap.  Must be
  /// callable concurrently (keep it a flag read).
  std::function<bool()> should_stop;
  /// Optional telemetry sinks.  When set, the scheduler publishes
  /// queue-depth/completion gauges, experiment and journal-byte
  /// counters, and an experiment-latency histogram, emits per-
  /// experiment + journal-append trace spans, and installs the bundle
  /// as each worker's ambient telemetry so engine taps fire inside
  /// every experiment.  Never affects results (RNG-neutral).
  obs::Telemetry telemetry;
};

struct RunReport {
  std::size_t planned = 0;    // expanded campaign size
  std::size_t cached = 0;     // skipped: already journaled
  std::size_t executed = 0;   // run and journaled this invocation
  std::size_t remaining = 0;  // left undone by max_experiments
  double elapsed_seconds = 0.0;
};

/// Runs `campaign` against the journal at `journal_path` (created when
/// absent, resumed when present).  Throws std::invalid_argument when the
/// journal belongs to a different campaign name, and rethrows the first
/// experiment failure after in-flight experiments finish (their records
/// are already journaled, so a later invocation resumes past them).
RunReport run_campaign(const CampaignSpec& campaign,
                       const std::string& journal_path,
                       const RunOptions& options,
                       const scenario::Registry& registry);
RunReport run_campaign(const CampaignSpec& campaign,
                       const std::string& journal_path,
                       const RunOptions& options = {});

}  // namespace antdense::campaign
