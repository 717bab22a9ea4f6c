#include "campaign/aggregate.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "util/check.hpp"
#include "util/table.hpp"

namespace antdense::campaign {

namespace {

/// Resolves a dotted path ("result.summary.within_eps") in `record`.
const util::JsonValue* lookup_path(const util::JsonValue& record,
                                   const std::string& path) {
  const util::JsonValue* node = &record;
  std::size_t start = 0;
  while (node != nullptr && start <= path.size()) {
    const std::size_t dot = path.find('.', start);
    const std::string part =
        path.substr(start, dot == std::string::npos ? std::string::npos
                                                    : dot - start);
    node = node->find(part);
    if (dot == std::string::npos) {
      break;
    }
    start = dot + 1;
  }
  return node;
}

/// Maps a group key to the record path it reads (empty for the special
/// "family" key, which needs string surgery on spec.topology).
std::string key_path(const std::string& key) {
  if (key == "rounds") {
    return "result.rounds";  // the resolved budget, not the declared 0
  }
  for (const char* spec_key :
       {"topology", "workload", "agents", "trials", "eps", "delta", "lazy",
        "miss", "spurious", "dropout", "dynamics", "seed",
        "property-fraction", "tracked", "checkpoints", "radius"}) {
    if (key == spec_key) {
      return "spec." + key;
    }
  }
  return key;  // already a dotted path
}

std::string group_value(const util::JsonValue& record,
                        const std::string& key) {
  if (key == "family") {
    const util::JsonValue* topo = lookup_path(record, "spec.topology");
    ANTDENSE_CHECK(topo != nullptr && topo->is_string(),
                   "aggregate: record has no spec.topology");
    const std::string& spec = topo->as_string();
    return spec.substr(0, spec.find(':'));
  }
  const std::string path = key_path(key);
  const util::JsonValue* value = lookup_path(record, path);
  ANTDENSE_CHECK(value != nullptr, "aggregate: unknown group key '" + key +
                                       "' (no field '" + path +
                                       "' in record)");
  if (value->is_string()) {
    return value->as_string();
  }
  // Numbers and bools reuse the JSON spelling, so CSV and JSON agree.
  return value->dump(0);
}

double metric(const util::JsonValue& record, const std::string& path) {
  const util::JsonValue* value = lookup_path(record, path);
  ANTDENSE_CHECK(value != nullptr && value->is_number(),
                 "aggregate: record is missing metric '" + path + "'");
  return value->as_double();
}

std::string csv_number(double v) { return util::JsonValue(v).dump(0); }

}  // namespace

Aggregate aggregate(const std::vector<util::JsonValue>& records,
                    const std::vector<std::string>& group_by) {
  ANTDENSE_CHECK(!group_by.empty(), "aggregate: need at least one group key");

  struct Accumulator {
    std::size_t n = 0;
    double sum_rel = 0.0, max_rel = 0.0;
    double sum_within = 0.0, min_within = 1.0;
    double eps = 0.0, delta = 0.0;
    bool uniform_envelope = true;
  };
  std::map<std::vector<std::string>, Accumulator> groups;

  for (const util::JsonValue& record : records) {
    std::vector<std::string> key;
    key.reserve(group_by.size());
    for (const std::string& k : group_by) {
      key.push_back(group_value(record, k));
    }
    Accumulator& acc = groups[key];
    const double rel = metric(record, "result.rel_error");
    const double within = metric(record, "result.summary.within_eps");
    const double eps = metric(record, "spec.eps");
    const double delta = metric(record, "spec.delta");
    if (acc.n == 0) {
      acc.eps = eps;
      acc.delta = delta;
      acc.min_within = within;
    } else if (acc.eps != eps || acc.delta != delta) {
      acc.uniform_envelope = false;
    }
    ++acc.n;
    acc.sum_rel += rel;
    acc.max_rel = std::max(acc.max_rel, rel);
    acc.sum_within += within;
    acc.min_within = std::min(acc.min_within, within);
  }

  Aggregate out;
  out.group_by = group_by;
  out.records = records.size();
  out.groups.reserve(groups.size());
  for (const auto& [key, acc] : groups) {
    AggregateGroup g;
    g.key = key;
    g.experiments = acc.n;
    g.mean_rel_error = acc.sum_rel / static_cast<double>(acc.n);
    g.max_rel_error = acc.max_rel;
    g.mean_within_eps = acc.sum_within / static_cast<double>(acc.n);
    g.min_within_eps = acc.min_within;
    g.has_envelope = acc.uniform_envelope;
    if (g.has_envelope) {
      g.eps = acc.eps;
      g.delta = acc.delta;
      g.envelope_met = g.mean_within_eps >= 1.0 - acc.delta;
    }
    out.groups.push_back(std::move(g));
  }
  return out;
}

std::string Aggregate::to_csv() const {
  std::string out;
  for (const std::string& key : group_by) {
    out += util::csv_escape(key);
    out += ',';
  }
  out +=
      "experiments,mean_rel_error,max_rel_error,mean_within_eps,"
      "min_within_eps,envelope_eps,envelope_delta,envelope_met\n";
  for (const AggregateGroup& g : groups) {
    for (const std::string& value : g.key) {
      out += util::csv_escape(value);
      out += ',';
    }
    out += std::to_string(g.experiments);
    out += ',';
    out += csv_number(g.mean_rel_error);
    out += ',';
    out += csv_number(g.max_rel_error);
    out += ',';
    out += csv_number(g.mean_within_eps);
    out += ',';
    out += csv_number(g.min_within_eps);
    out += ',';
    if (g.has_envelope) {
      out += csv_number(g.eps);
      out += ',';
      out += csv_number(g.delta);
      out += ',';
      out += g.envelope_met ? "true" : "false";
    } else {
      out += ",,";
    }
    out += '\n';
  }
  return out;
}

util::JsonValue Aggregate::to_json() const {
  util::JsonValue doc = util::JsonValue::object();
  doc.set("schema", kAggregateSchema);
  doc.set("records", static_cast<std::uint64_t>(records));
  util::JsonValue keys = util::JsonValue::array();
  for (const std::string& key : group_by) {
    keys.push_back(key);
  }
  doc.set("group_by", std::move(keys));

  util::JsonValue group_docs = util::JsonValue::array();
  for (const AggregateGroup& g : groups) {
    util::JsonValue gd = util::JsonValue::object();
    util::JsonValue key_doc = util::JsonValue::object();
    for (std::size_t i = 0; i < group_by.size(); ++i) {
      key_doc.set(group_by[i], g.key[i]);
    }
    gd.set("key", std::move(key_doc));
    gd.set("experiments", static_cast<std::uint64_t>(g.experiments));
    gd.set("mean_rel_error", g.mean_rel_error);
    gd.set("max_rel_error", g.max_rel_error);
    gd.set("mean_within_eps", g.mean_within_eps);
    gd.set("min_within_eps", g.min_within_eps);
    if (g.has_envelope) {
      util::JsonValue env = util::JsonValue::object();
      env.set("eps", g.eps);
      env.set("delta", g.delta);
      env.set("met", g.envelope_met);
      gd.set("envelope", std::move(env));
    } else {
      gd.set("envelope", util::JsonValue());
    }
    group_docs.push_back(std::move(gd));
  }
  doc.set("groups", std::move(group_docs));
  return doc;
}

}  // namespace antdense::campaign
