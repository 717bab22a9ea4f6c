// The campaign run journal: one JSONL record (schema
// "antdense.campaign.v1") per completed experiment, appended and
// flushed as each finishes.  The journal is simultaneously
//
//   * the progress log a running campaign streams to disk,
//   * the result cache — re-running a campaign skips every id already
//     recorded, so a killed campaign resumes where it stopped, and
//   * the aggregation pipeline's input (campaign/aggregate.hpp).
//
// Records deliberately exclude wall-clock time and thread counts, so a
// campaign's journal is bit-identical (modulo record order) for any
// worker count and any run/resume split — the property the acceptance
// tests and the tier-1 `app_campaign` check (tests/app_checks.py) pin.
//
// Record shape:
//
//   { "schema": "antdense.campaign.v1",
//     "campaign": name, "id": hex64, "seed": derived-seed,
//     "spec": { declared identity JSON },
//     "result": { "topology": str, "num_nodes": int, "rounds": int,
//                 "true_value": num,
//                 "rel_error": num,  // scenario::relative_error
//                 "summary": { count, mean, stddev, standard_error,
//                              min, max, within_eps } } }
//
// The summary object is ScenarioSummary::to_json(), the same writer the
// scenario result document uses.
//
// Paper: Musco, Su & Lynch (PODC 2016, arXiv:1603.02981).
#pragma once

#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "scenario/experiment.hpp"
#include "util/json.hpp"

namespace antdense::campaign {

inline constexpr const char* kJournalSchema = "antdense.campaign.v1";

/// Builds the journal record for one completed experiment.
util::JsonValue make_record(const PlannedExperiment& planned,
                            const scenario::ScenarioResult& result,
                            const std::string& campaign_name);

class Journal {
 public:
  /// Parses an existing journal; a missing file is an empty journal.  A
  /// final line cut mid-write (the campaign was killed: unparseable AND
  /// missing its terminating newline) is silently dropped — that
  /// experiment simply reruns on resume — while a malformed or
  /// wrong-schema line anywhere else, including a newline-terminated
  /// garbage tail, throws naming the line (corruption must not be
  /// mistaken for progress).
  static std::vector<util::JsonValue> load(const std::string& path);

  /// The "id" of every record: the completed-experiment cache.
  static std::set<std::string> completed_ids(
      const std::vector<util::JsonValue>& records);

  /// Opens `path` for appending (created when absent); a trailing
  /// partial line left by a kill is truncated away first so the next
  /// record starts on its own line.  Throws std::runtime_error when the
  /// file cannot be opened.
  explicit Journal(const std::string& path);

  /// Appends one record as a single compact line and flushes, so a
  /// record is either wholly on disk or droppable as the trailing
  /// fragment.  Thread-safe.  Returns the bytes written (line plus
  /// newline) — the scheduler's journal-bytes telemetry counts these.
  std::size_t append(const util::JsonValue& record);

 private:
  std::mutex mutex_;
  std::ofstream out_;
  std::string path_;
};

}  // namespace antdense::campaign
