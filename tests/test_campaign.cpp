// Campaign engine: axis parsing and expansion (grid/zip/list, cartesian
// order, identity hashing, order-independent seed derivation), the JSONL
// journal (round-trip, truncated-tail tolerance, corruption detection),
// the scheduler (thread-count-invariant journals at 100+
// experiments, resume-after-interrupt equals an uninterrupted run), and
// the aggregation pipeline (group-by reducers, CSV/JSON artifacts,
// Theorem-1 envelope checks).
#include "campaign/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/aggregate.hpp"
#include "campaign/journal.hpp"
#include "campaign/spec.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "scenario/registry.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace antdense {
namespace {

using campaign::Aggregate;
using campaign::Axis;
using campaign::CampaignSpec;
using campaign::Journal;
using campaign::PlannedExperiment;
using campaign::RunOptions;
using campaign::RunReport;
using util::JsonValue;

CampaignSpec parse_campaign(const std::string& text) {
  return CampaignSpec::from_json(JsonValue::parse(text));
}

std::vector<std::string> sorted_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

// ---------------------------------------------------------------------
// Axes and expansion
// ---------------------------------------------------------------------

TEST(CampaignAxis, GridZipListShapes) {
  const Axis grid = Axis::from_json(JsonValue::parse(
      R"({"kind": "grid", "key": "agents", "values": [10, 20, 30]})"));
  EXPECT_EQ(grid.kind, Axis::Kind::kGrid);
  EXPECT_EQ(grid.points.size(), 3u);
  EXPECT_EQ(grid.points[1].find("agents")->as_uint(), 20u);

  const Axis zip = Axis::from_json(JsonValue::parse(
      R"({"kind": "zip", "keys": ["eps", "delta"],
          "values": [[0.1, 0.05], [0.2, 0.1]]})"));
  EXPECT_EQ(zip.points.size(), 2u);
  EXPECT_DOUBLE_EQ(zip.points[0].find("eps")->as_double(), 0.1);
  EXPECT_DOUBLE_EQ(zip.points[0].find("delta")->as_double(), 0.05);

  const Axis list = Axis::from_json(JsonValue::parse(
      R"({"kind": "list",
          "specs": [{"lazy": 0.0}, {"lazy": 0.3, "agents": 9}]})"));
  EXPECT_EQ(list.points.size(), 2u);
  EXPECT_EQ(list.points[1].find("agents")->as_uint(), 9u);
}

TEST(CampaignAxis, MalformedAxesThrow) {
  const char* bad[] = {
      R"({"key": "agents", "values": [1]})",                 // no kind
      R"({"kind": "spiral", "key": "agents", "values": [1]})",
      R"({"kind": "grid", "values": [1]})",                  // no key
      R"({"kind": "grid", "key": "agents"})",                // no values
      R"({"kind": "grid", "key": "agents", "values": []})",  // empty
      R"({"kind": "grid", "key": "agents", "values": [1], "extra": 2})",
      R"({"kind": "grid", "key": "threads", "values": [1, 2]})",
      R"({"kind": "zip", "keys": ["eps"], "values": [[0.1, 0.2]]})",
      R"({"kind": "zip", "keys": [], "values": []})",
      R"({"kind": "list", "specs": [3]})",  // spec not an object
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    EXPECT_THROW(Axis::from_json(JsonValue::parse(text)),
                 std::invalid_argument);
  }
}

TEST(CampaignSpecParse, DefaultsAndUnknownKeys) {
  const CampaignSpec empty = parse_campaign("{}");
  EXPECT_EQ(empty.name, "campaign");
  EXPECT_EQ(empty.seed, 42u);
  EXPECT_EQ(empty.threads, 0u);
  EXPECT_TRUE(empty.axes.empty());
  // No axes: the campaign is its base spec alone.
  EXPECT_EQ(empty.expand().size(), 1u);

  EXPECT_THROW(parse_campaign(R"({"axis": []})"), std::invalid_argument);
  EXPECT_THROW(parse_campaign(R"({"base": {"agnets": 1}})"),
               std::invalid_argument);
}

TEST(CampaignExpand, CartesianProductFirstAxisSlowest) {
  const CampaignSpec camp = parse_campaign(R"({
    "base": {"agents": 10, "rounds": 5},
    "axes": [
      {"kind": "grid", "key": "topology",
       "values": ["ring:64", "complete:32"]},
      {"kind": "grid", "key": "agents", "values": [4, 6, 8]}
    ]})");
  const std::vector<PlannedExperiment> planned = camp.expand();
  ASSERT_EQ(planned.size(), 6u);
  EXPECT_EQ(planned[0].spec.topology, "ring:64");
  EXPECT_EQ(planned[0].spec.agents, 4u);
  EXPECT_EQ(planned[2].spec.topology, "ring:64");
  EXPECT_EQ(planned[2].spec.agents, 8u);
  EXPECT_EQ(planned[3].spec.topology, "complete:32");
  EXPECT_EQ(planned[3].spec.agents, 4u);
  // Base fields not named by an axis carry through.
  for (const PlannedExperiment& p : planned) {
    EXPECT_EQ(p.spec.rounds, 5u);
  }
}

TEST(CampaignExpand, IdentitiesAndSeedsAreContentDerived) {
  const char* forward = R"({
    "seed": 11,
    "base": {"rounds": 5},
    "axes": [
      {"kind": "grid", "key": "topology",
       "values": ["ring:64", "complete:32"]},
      {"kind": "grid", "key": "agents", "values": [4, 6]}
    ]})";
  // Same points, axes swapped: different expansion order, same specs.
  const char* swapped = R"({
    "seed": 11,
    "base": {"rounds": 5},
    "axes": [
      {"kind": "grid", "key": "agents", "values": [4, 6]},
      {"kind": "grid", "key": "topology",
       "values": ["ring:64", "complete:32"]}
    ]})";
  auto pairs = [](const CampaignSpec& camp) {
    std::set<std::pair<std::string, std::uint64_t>> out;
    for (const PlannedExperiment& p : camp.expand()) {
      out.insert({p.id, p.seed});
      EXPECT_EQ(p.spec.seed, p.seed);
      EXPECT_LT(p.seed, std::uint64_t{1} << 53);
    }
    return out;
  };
  const auto a = pairs(parse_campaign(forward));
  const auto b = pairs(parse_campaign(swapped));
  EXPECT_EQ(a.size(), 4u);  // all identities distinct
  EXPECT_EQ(a, b);

  // A different campaign seed re-seeds every experiment but keeps ids.
  std::string reseeded = forward;
  reseeded.replace(reseeded.find("11"), 2, "12");
  const auto c = pairs(parse_campaign(reseeded));
  std::set<std::string> ids_a, ids_c;
  std::set<std::uint64_t> seeds_a, seeds_c;
  for (const auto& [id, seed] : a) {
    ids_a.insert(id);
    seeds_a.insert(seed);
  }
  for (const auto& [id, seed] : c) {
    ids_c.insert(id);
    seeds_c.insert(seed);
  }
  EXPECT_EQ(ids_a, ids_c);
  EXPECT_NE(seeds_a, seeds_c);
}

TEST(CampaignExpand, DuplicateIdentitiesThrow) {
  const CampaignSpec camp = parse_campaign(R"({
    "axes": [{"kind": "list", "specs": [{"agents": 8}, {"agents": 8}]}]})");
  EXPECT_THROW(camp.expand(), std::invalid_argument);
  // Distinguishing the duplicates by seed resolves it.
  const CampaignSpec fixed = parse_campaign(R"({
    "axes": [{"kind": "list",
              "specs": [{"agents": 8, "seed": 1},
                        {"agents": 8, "seed": 2}]}]})");
  EXPECT_EQ(fixed.expand().size(), 2u);
}

TEST(CampaignExpand, InvalidExpandedSpecsFailFast) {
  const CampaignSpec camp = parse_campaign(R"({
    "axes": [{"kind": "grid", "key": "agents", "values": [1]}]})");
  EXPECT_THROW(camp.expand(), std::invalid_argument);  // needs >= 2 agents
}

// ---------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------

JsonValue minimal_record(const std::string& id) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", campaign::kJournalSchema);
  doc.set("campaign", "t");
  doc.set("id", id);
  return doc;
}

TEST(CampaignJournal, AppendLoadRoundTripsAndTracksIds) {
  const std::string path = temp_path("campaign_journal_roundtrip.jsonl");
  {
    Journal journal(path);
    journal.append(minimal_record("aa"));
    journal.append(minimal_record("bb"));
  }
  const std::vector<JsonValue> records = Journal::load(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].find("id")->as_string(), "bb");
  EXPECT_EQ(Journal::completed_ids(records),
            (std::set<std::string>{"aa", "bb"}));
  std::remove(path.c_str());
  EXPECT_TRUE(Journal::load(path).empty());  // missing file = empty
}

TEST(CampaignJournal, TruncatedTailDroppedCorruptionThrows) {
  const std::string path = temp_path("campaign_journal_tail.jsonl");
  {
    std::ofstream out(path);
    out << minimal_record("aa").dump(0) << "\n";
    out << R"({"schema": "antdense.campaign.v1", "campaign": "t", "id")";
    // no newline: the record was cut mid-write by a kill
  }
  const std::vector<JsonValue> records = Journal::load(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].find("id")->as_string(), "aa");

  // The same fragment anywhere but the tail is corruption, not progress.
  {
    std::ofstream out(path);
    out << R"({"schema": "antdense.campaign.v1", "campaign": "t", "id")"
        << "\n";
    out << minimal_record("aa").dump(0) << "\n";
  }
  EXPECT_THROW(Journal::load(path), std::invalid_argument);

  // So is a malformed final line that IS newline-terminated: append()
  // only ever tears a record by losing a suffix (the newline last), so
  // a complete garbage line cannot be a kill artifact.
  {
    std::ofstream out(path);
    out << minimal_record("aa").dump(0) << "\n";
    out << "not json at all\n";
  }
  EXPECT_THROW(Journal::load(path), std::invalid_argument);

  // Wrong-schema lines are rejected even at the tail.
  {
    std::ofstream out(path);
    out << R"({"schema": "something.else.v9"})" << "\n";
  }
  EXPECT_THROW(Journal::load(path), std::invalid_argument);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Scheduler: determinism and resume
// ---------------------------------------------------------------------

/// 2 topologies x 25 agent counts x 2 round budgets = 100 tiny
/// experiments — the acceptance-criterion scale.
CampaignSpec hundred_experiment_campaign() {
  std::ostringstream agents;
  for (int a = 4; a < 29; ++a) {
    agents << (a == 4 ? "" : ", ") << a;
  }
  return parse_campaign(R"({
    "name": "det",
    "seed": 5,
    "base": {"trials": 1},
    "axes": [
      {"kind": "grid", "key": "topology",
       "values": ["ring:64", "complete:32"]},
      {"kind": "grid", "key": "agents", "values": [)" +
                        agents.str() + R"(]},
      {"kind": "grid", "key": "rounds", "values": [3, 6]}
    ]})");
}

TEST(CampaignScheduler, JournalBitIdenticalAcrossThreadCounts) {
  const CampaignSpec camp = hundred_experiment_campaign();
  ASSERT_EQ(camp.expand().size(), 100u);

  const std::string path1 = temp_path("campaign_det_t1.jsonl");
  const std::string path4 = temp_path("campaign_det_t4.jsonl");
  RunOptions serial;
  serial.threads = 1;
  RunOptions parallel;
  parallel.threads = 4;
  const RunReport r1 = campaign::run_campaign(camp, path1, serial);
  const RunReport r4 = campaign::run_campaign(camp, path4, parallel);
  EXPECT_EQ(r1.executed, 100u);
  EXPECT_EQ(r4.executed, 100u);

  const std::vector<std::string> lines1 = sorted_lines(path1);
  EXPECT_EQ(lines1.size(), 100u);
  EXPECT_EQ(lines1, sorted_lines(path4));
  std::remove(path1.c_str());
  std::remove(path4.c_str());
}

TEST(CampaignScheduler, InnerThreadsDoNotChangeTheJournal) {
  // Within-experiment parallelism (inner_threads -> ScenarioSpec::
  // threads) is a pure resource knob: the journal must be bit-identical
  // to the historical single-threaded-experiment regime.
  const CampaignSpec camp = parse_campaign(R"({
    "name": "inner",
    "seed": 11,
    "base": {"engine": "sharded", "trials": 1},
    "axes": [
      {"kind": "grid", "key": "topology",
       "values": ["ring:64", "complete:32"]},
      {"kind": "grid", "key": "agents", "values": [6, 10]},
      {"kind": "grid", "key": "rounds", "values": [4]}
    ]})");
  const std::string path1 = temp_path("campaign_inner_t1.jsonl");
  const std::string path4 = temp_path("campaign_inner_t4.jsonl");
  RunOptions plain;
  plain.threads = 2;
  RunOptions wide;
  wide.threads = 2;
  wide.inner_threads = 4;
  wide.on_diagnostic = [](const std::string&) {};  // clamp is expected
  campaign::run_campaign(camp, path1, plain);
  campaign::run_campaign(camp, path4, wide);
  EXPECT_EQ(sorted_lines(path1), sorted_lines(path4));
  std::remove(path1.c_str());
  std::remove(path4.c_str());
}

TEST(CampaignScheduler, OverbudgetThreadRequestsAreClampedLoudly) {
  const CampaignSpec camp = parse_campaign(R"({
    "name": "clamp",
    "base": {"agents": 6, "rounds": 3, "trials": 1},
    "axes": [
      {"kind": "grid", "key": "seed", "values": [1, 2, 3]}
    ]})");
  const unsigned hardware = util::default_thread_count();
  const std::string path = temp_path("campaign_clamp.jsonl");
  RunOptions options;
  // Guaranteed overbudget on any machine: hw workers x (hw + 1) inner.
  options.threads = hardware;
  options.inner_threads = hardware + 1;
  std::vector<std::string> diagnostics;
  options.on_diagnostic = [&](const std::string& message) {
    diagnostics.push_back(message);
  };
  const RunReport report = campaign::run_campaign(camp, path, options);
  EXPECT_EQ(report.executed, 3u);  // clamped, not failed
  ASSERT_FALSE(diagnostics.empty());
  bool mentions_clamp = false;
  for (const std::string& message : diagnostics) {
    if (message.find("clamp") != std::string::npos &&
        message.find("hardware_concurrency") != std::string::npos) {
      mentions_clamp = true;
    }
  }
  EXPECT_TRUE(mentions_clamp) << diagnostics.front();
  std::remove(path.c_str());
}

TEST(CampaignScheduler, WorkerOversubscriptionIsAllowedButReported) {
  // inner_threads == 1 keeps the historical regime: N workers run even
  // on fewer cores (differential tests depend on real multi-worker
  // interleaving), but the scheduler now says so.
  const CampaignSpec camp = parse_campaign(R"({
    "name": "over",
    "base": {"agents": 6, "rounds": 3, "trials": 1},
    "axes": [
      {"kind": "grid", "key": "seed", "values": [1, 2, 3, 4]}
    ]})");
  const std::string path = temp_path("campaign_over.jsonl");
  RunOptions options;
  options.threads = util::default_thread_count() + 3;
  std::vector<std::string> diagnostics;
  options.on_diagnostic = [&](const std::string& message) {
    diagnostics.push_back(message);
  };
  const RunReport report = campaign::run_campaign(camp, path, options);
  EXPECT_EQ(report.executed, 4u);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NE(diagnostics[0].find("oversubscribed"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CampaignScheduler, InterruptedRunResumesToTheSameJournal) {
  const CampaignSpec camp = hundred_experiment_campaign();
  const std::string full_path = temp_path("campaign_resume_full.jsonl");
  const std::string split_path = temp_path("campaign_resume_split.jsonl");

  RunOptions options;
  options.threads = 2;
  const RunReport full = campaign::run_campaign(camp, full_path, options);
  EXPECT_EQ(full.cached, 0u);

  // "Interrupt" after 33 experiments (the cap journals exactly what an
  // asynchronous kill would, minus at most one partial line — covered
  // below), then resume by re-running.
  RunOptions capped = options;
  capped.max_experiments = 33;
  const RunReport first =
      campaign::run_campaign(camp, split_path, capped);
  EXPECT_EQ(first.executed, 33u);
  EXPECT_EQ(first.remaining, 67u);

  // Simulate the kill landing mid-append: chop the final record in half.
  {
    std::ifstream in(split_path);
    std::stringstream text;
    text << in.rdbuf();
    std::string content = text.str();
    content.resize(content.size() - 40);
    std::ofstream out(split_path, std::ios::trunc);
    out << content;
  }

  const RunReport second =
      campaign::run_campaign(camp, split_path, options);
  EXPECT_EQ(second.cached, 32u);  // the chopped record reruns
  EXPECT_EQ(second.executed, 68u);
  EXPECT_EQ(sorted_lines(split_path), sorted_lines(full_path));

  // A third run is a no-op: everything cached.
  const RunReport third =
      campaign::run_campaign(camp, split_path, options);
  EXPECT_EQ(third.cached, 100u);
  EXPECT_EQ(third.executed, 0u);
  std::remove(full_path.c_str());
  std::remove(split_path.c_str());
}

TEST(CampaignScheduler, ShouldStopCutsTheRunShortButJournalsCleanly) {
  const CampaignSpec camp = hundred_experiment_campaign();
  const std::string path = temp_path("campaign_should_stop.jsonl");

  // Trip the stop signal once the first experiment completes — the
  // cooperative shape a SIGINT/SIGTERM handler drives through
  // antdense_sweep.  Workers finish what they already claimed, so a few
  // more may land, but the vast majority must stay unclaimed.
  std::atomic<bool> stop{false};
  RunOptions interrupted;
  interrupted.threads = 2;
  interrupted.should_stop = [&stop] { return stop.load(); };
  interrupted.on_complete = [&stop](const PlannedExperiment&, std::size_t,
                                    std::size_t) { stop.store(true); };
  const RunReport first = campaign::run_campaign(camp, path, interrupted);
  EXPECT_GE(first.executed, 1u);
  EXPECT_GT(first.remaining, 0u) << "a stopped run must report leftovers";
  EXPECT_EQ(first.executed + first.remaining, first.planned);

  // Everything that executed was journaled before the stop took hold:
  // the journal tail is flushed, records parse, ids are complete.
  const std::vector<JsonValue> records = Journal::load(path);
  EXPECT_EQ(records.size(), first.executed);

  // Resuming without should_stop finishes the campaign, reusing every
  // journaled record — the same contract as --max-experiments.
  RunOptions resume;
  resume.threads = 2;
  const RunReport second = campaign::run_campaign(camp, path, resume);
  EXPECT_EQ(second.cached, first.executed);
  EXPECT_EQ(second.executed, first.planned - first.executed);
  EXPECT_EQ(second.remaining, 0u);
  std::remove(path.c_str());
}

TEST(CampaignScheduler, RecordsCarrySchemaAndResolvedRounds) {
  const CampaignSpec camp = parse_campaign(R"({
    "name": "rec",
    "base": {"topology": "complete:32", "agents": 8, "rounds": 0,
             "eps": 0.5, "delta": 0.2},
    "axes": []})");
  const std::string path = temp_path("campaign_records.jsonl");
  campaign::run_campaign(camp, path, RunOptions{});
  const std::vector<JsonValue> records = Journal::load(path);
  ASSERT_EQ(records.size(), 1u);
  const JsonValue& rec = records[0];
  EXPECT_EQ(rec.find("schema")->as_string(), campaign::kJournalSchema);
  EXPECT_EQ(rec.find("campaign")->as_string(), "rec");
  EXPECT_EQ(rec.find("id")->as_string().size(), 16u);
  // Declared spec keeps rounds=0 (planned); the result records what ran.
  EXPECT_EQ(rec.find("spec")->find("rounds")->as_uint(), 0u);
  EXPECT_GT(rec.find("result")->find("rounds")->as_uint(), 0u);
  EXPECT_EQ(rec.find("spec")->find("threads"), nullptr);
  EXPECT_GT(
      rec.find("result")->find("summary")->find("count")->as_uint(), 0u);
  std::remove(path.c_str());
}

TEST(CampaignScheduler, RejectsAForeignJournal) {
  const std::string path = temp_path("campaign_foreign.jsonl");
  campaign::run_campaign(parse_campaign(R"({"name": "mine",
    "base": {"topology": "complete:32", "agents": 4, "rounds": 2}})"),
                         path, RunOptions{});
  EXPECT_THROW(
      campaign::run_campaign(parse_campaign(R"({"name": "theirs",
    "base": {"topology": "complete:32", "agents": 4, "rounds": 2}})"),
                             path, RunOptions{}),
      std::invalid_argument);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------

/// Synthetic journal records with known metrics.
JsonValue synthetic_record(const std::string& topology,
                           std::uint32_t rounds, double rel_error,
                           double within, double eps, double delta) {
  JsonValue spec = JsonValue::object();
  spec.set("topology", topology);
  spec.set("workload", "density");
  spec.set("eps", eps);
  spec.set("delta", delta);

  JsonValue summary = JsonValue::object();
  summary.set("count", std::uint64_t{10});
  summary.set("within_eps", within);

  JsonValue result = JsonValue::object();
  result.set("rounds", rounds);
  result.set("rel_error", rel_error);
  result.set("summary", std::move(summary));

  JsonValue doc = JsonValue::object();
  doc.set("schema", campaign::kJournalSchema);
  doc.set("campaign", "agg");
  doc.set("id", topology + std::to_string(rounds));
  doc.set("spec", std::move(spec));
  doc.set("result", std::move(result));
  return doc;
}

TEST(CampaignAggregate, GroupsAndReduces) {
  const std::vector<JsonValue> records = {
      synthetic_record("ring:64", 10, 0.2, 0.90, 0.5, 0.2),
      synthetic_record("ring:128", 10, 0.4, 0.70, 0.5, 0.2),
      synthetic_record("ring:64", 20, 0.1, 0.95, 0.5, 0.2),
      synthetic_record("torus2d:8x8", 10, 0.3, 0.85, 0.5, 0.2),
  };
  const Aggregate agg =
      campaign::aggregate(records, {"family", "rounds"});
  EXPECT_EQ(agg.records, 4u);
  ASSERT_EQ(agg.groups.size(), 3u);  // (ring,10), (ring,20), (torus2d,10)

  // std::map order: "ring" < "torus2d", "10" < "20".
  const campaign::AggregateGroup& ring10 = agg.groups[0];
  EXPECT_EQ(ring10.key, (std::vector<std::string>{"ring", "10"}));
  EXPECT_EQ(ring10.experiments, 2u);
  EXPECT_DOUBLE_EQ(ring10.mean_rel_error, 0.3);
  EXPECT_DOUBLE_EQ(ring10.max_rel_error, 0.4);
  EXPECT_DOUBLE_EQ(ring10.mean_within_eps, 0.8);
  EXPECT_DOUBLE_EQ(ring10.min_within_eps, 0.7);
  ASSERT_TRUE(ring10.has_envelope);
  EXPECT_DOUBLE_EQ(ring10.delta, 0.2);
  EXPECT_TRUE(ring10.envelope_met);  // 0.8 >= 1 - 0.2

  const campaign::AggregateGroup& ring20 = agg.groups[1];
  EXPECT_EQ(ring20.experiments, 1u);
  EXPECT_TRUE(ring20.envelope_met);  // 0.95 >= 0.8
}

TEST(CampaignAggregate, MixedEnvelopeGroupsReportNone) {
  const std::vector<JsonValue> records = {
      synthetic_record("ring:64", 10, 0.2, 0.9, 0.5, 0.2),
      synthetic_record("ring:64", 20, 0.2, 0.9, 0.3, 0.2),  // other eps
  };
  const Aggregate agg = campaign::aggregate(records, {"family"});
  ASSERT_EQ(agg.groups.size(), 1u);
  EXPECT_FALSE(agg.groups[0].has_envelope);
}

TEST(CampaignAggregate, CsvAndJsonArtifacts) {
  const std::vector<JsonValue> records = {
      synthetic_record("ring:64", 10, 0.2, 0.9, 0.5, 0.2),
      synthetic_record("torus2d:8x8", 10, 0.3, 0.8, 0.5, 0.2),
  };
  const Aggregate agg =
      campaign::aggregate(records, {"family", "workload"});

  const std::string csv = agg.to_csv();
  std::istringstream lines(csv);
  std::string header;
  std::getline(lines, header);
  EXPECT_EQ(header,
            "family,workload,experiments,mean_rel_error,max_rel_error,"
            "mean_within_eps,min_within_eps,envelope_eps,envelope_delta,"
            "envelope_met");
  std::size_t rows = 0;
  for (std::string row; std::getline(lines, row);) {
    if (!row.empty()) {
      ++rows;
    }
  }
  EXPECT_EQ(rows, 2u);

  const JsonValue doc =
      JsonValue::parse(agg.to_json().dump());  // round-trips
  EXPECT_EQ(doc.find("schema")->as_string(), campaign::kAggregateSchema);
  EXPECT_EQ(doc.find("records")->as_uint(), 2u);
  ASSERT_EQ(doc.find("groups")->items().size(), 2u);
  const JsonValue& g0 = doc.find("groups")->items()[0];
  EXPECT_EQ(g0.find("key")->find("family")->as_string(), "ring");
  EXPECT_TRUE(g0.find("envelope")->is_object());
}

TEST(CampaignAggregate, UnknownKeysAndDottedPaths) {
  const std::vector<JsonValue> records = {
      synthetic_record("ring:64", 10, 0.2, 0.9, 0.5, 0.2)};
  EXPECT_THROW(campaign::aggregate(records, {"flavor"}),
               std::invalid_argument);
  EXPECT_THROW(campaign::aggregate(records, {}), std::invalid_argument);
  // Dotted paths reach into records directly.
  const Aggregate agg =
      campaign::aggregate(records, {"spec.eps", "result.rounds"});
  ASSERT_EQ(agg.groups.size(), 1u);
  EXPECT_EQ(agg.groups[0].key,
            (std::vector<std::string>{"0.5", "10"}));
}

// End-to-end: a real (tiny) campaign aggregated against the Theorem-1
// envelope per topology family.
TEST(CampaignAggregate, EndToEndEnvelopeCurves) {
  const CampaignSpec camp = parse_campaign(R"({
    "name": "e2e",
    "seed": 3,
    "base": {"agents": 24, "eps": 0.9, "delta": 0.5, "trials": 2},
    "axes": [
      {"kind": "grid", "key": "topology",
       "values": ["complete:64", "ring:64"]},
      {"kind": "grid", "key": "rounds", "values": [8, 16]}
    ]})");
  const std::string path = temp_path("campaign_e2e.jsonl");
  campaign::run_campaign(camp, path, RunOptions{});
  const Aggregate agg = campaign::aggregate(Journal::load(path),
                                            {"family", "rounds"});
  EXPECT_EQ(agg.records, 4u);
  ASSERT_EQ(agg.groups.size(), 4u);
  for (const campaign::AggregateGroup& g : agg.groups) {
    EXPECT_EQ(g.experiments, 1u);
    EXPECT_TRUE(g.has_envelope);
    EXPECT_DOUBLE_EQ(g.eps, 0.9);
    EXPECT_GE(g.mean_within_eps, 0.0);
    EXPECT_LE(g.mean_within_eps, 1.0);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Scheduler telemetry
// ---------------------------------------------------------------------

TEST(CampaignScheduler, PublishesTelemetryWithoutChangingTheJournal) {
  const CampaignSpec camp = parse_campaign(R"({
    "name": "telemetry",
    "seed": 5,
    "base": {"workload": "density", "agents": 12, "rounds": 10,
             "trials": 1},
    "axes": [
      {"kind": "grid", "key": "topology",
       "values": ["ring:64", "complete:32", "ring:128"]}
    ]})");
  const std::string plain_path = temp_path("campaign_tel_off.jsonl");
  const std::string wired_path = temp_path("campaign_tel_on.jsonl");

  campaign::run_campaign(camp, plain_path, RunOptions{});

  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  RunOptions wired;
  wired.telemetry = obs::Telemetry{&metrics, &trace};
  const RunReport report = campaign::run_campaign(camp, wired_path, wired);
  EXPECT_EQ(report.executed, 3u);

  // Telemetry never reaches the results: journals are bit-identical.
  EXPECT_EQ(sorted_lines(plain_path), sorted_lines(wired_path));

  // Scheduler counters and gauges reconcile with the report.
  EXPECT_EQ(metrics.counter("antdense_campaign_experiments_total").value(),
            3u);
  EXPECT_EQ(metrics.gauge("antdense_campaign_scheduled").value(), 3);
  EXPECT_EQ(metrics.gauge("antdense_campaign_completed").value(), 3);
  EXPECT_EQ(metrics.gauge("antdense_campaign_queue_depth").value(), 0);

  // Journal-byte accounting matches the file the scheduler wrote.
  std::ifstream in(wired_path, std::ios::binary | std::ios::ate);
  EXPECT_EQ(metrics.counter("antdense_campaign_journal_bytes_total").value(),
            static_cast<std::uint64_t>(in.tellg()));

  // Every experiment timed, and every one left an experiment span plus
  // engine phase spans on the trace.
  EXPECT_EQ(metrics.histogram("antdense_campaign_experiment_seconds")
                .snapshot()
                .count,
            3u);
  bool saw_experiment = false;
  bool saw_journal_append = false;
  const JsonValue trace_doc = trace.to_json();
  for (const JsonValue& e : trace_doc.find("traceEvents")->items()) {
    const std::string& name = e.find("name")->as_string();
    saw_experiment = saw_experiment || name == "experiment";
    saw_journal_append = saw_journal_append || name == "journal-append";
  }
  EXPECT_TRUE(saw_experiment);
  EXPECT_TRUE(saw_journal_append);

  // A resumed (fully cached) run schedules zero and appends nothing.
  const RunReport cached = campaign::run_campaign(camp, wired_path, wired);
  EXPECT_EQ(cached.executed, 0u);
  EXPECT_EQ(metrics.counter("antdense_campaign_experiments_total").value(),
            3u);
  std::remove(plain_path.c_str());
  std::remove(wired_path.c_str());
}

}  // namespace
}  // namespace antdense
