#include "campaign/journal.hpp"

#include <filesystem>
#include <stdexcept>
#include <utility>

#include "util/check.hpp"

namespace antdense::campaign {

util::JsonValue make_record(const PlannedExperiment& planned,
                            const scenario::ScenarioResult& result,
                            const std::string& campaign_name) {
  util::JsonValue doc = util::JsonValue::object();
  doc.set("schema", kJournalSchema);
  doc.set("campaign", campaign_name);
  doc.set("id", planned.id);
  doc.set("seed", planned.seed);
  doc.set("spec", planned.declared);

  util::JsonValue res = util::JsonValue::object();
  res.set("topology", result.topology_name);
  res.set("num_nodes", result.num_nodes);
  // The resolved budget: when the declared spec plans via (eps, delta)
  // its "rounds" is 0, and aggregation groups on what actually ran.
  res.set("rounds", result.spec.rounds);
  res.set("true_value", result.true_value);
  res.set("rel_error", scenario::relative_error(result.summary.mean,
                                                result.true_value));
  res.set("summary", result.summary.to_json());

  doc.set("result", std::move(res));
  return doc;
}

std::vector<util::JsonValue> Journal::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {};
  }
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  // append() writes each record as "<json>\n" and a partial OS write can
  // only lose a suffix, so a kill-torn record is exactly a final line
  // with no terminating newline.  Anything else that fails to parse —
  // including a malformed line that IS newline-terminated — is
  // corruption and must throw, not be mistaken for an unfinished tail.
  const bool ends_with_newline =
      !content.empty() && content.back() == '\n';
  std::vector<std::pair<std::size_t, std::string>> lines;
  std::size_t start = 0;
  for (std::size_t number = 1; start < content.size(); ++number) {
    std::size_t end = content.find('\n', start);
    if (end == std::string::npos) {
      end = content.size();
    }
    if (end > start) {
      lines.emplace_back(number, content.substr(start, end - start));
    }
    start = end + 1;
  }
  std::vector<util::JsonValue> records;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const bool droppable_tail =
        i + 1 == lines.size() && !ends_with_newline;
    util::JsonValue record;
    try {
      record = util::JsonValue::parse(lines[i].second);
    } catch (const std::invalid_argument&) {
      if (droppable_tail) {
        break;
      }
      throw std::invalid_argument(
          "journal " + path + " line " + std::to_string(lines[i].first) +
          ": malformed record (corrupted journal?)");
    }
    const util::JsonValue* schema = record.find("schema");
    ANTDENSE_CHECK(schema != nullptr && schema->is_string() &&
                       schema->as_string() == kJournalSchema,
                   "journal " + path + " line " +
                       std::to_string(lines[i].first) +
                       ": not an " + std::string(kJournalSchema) +
                       " record");
    records.push_back(std::move(record));
  }
  return records;
}

std::set<std::string> Journal::completed_ids(
    const std::vector<util::JsonValue>& records) {
  std::set<std::string> ids;
  for (const util::JsonValue& record : records) {
    const util::JsonValue* id = record.find("id");
    if (id != nullptr && id->is_string()) {
      ids.insert(id->as_string());
    }
  }
  return ids;
}

Journal::Journal(const std::string& path) : path_(path) {
  // A kill mid-append leaves a partial trailing line with no newline;
  // appending straight after it would weld the next record onto the
  // fragment.  Truncate to the last complete line first — load() already
  // treats the fragment as not-done, so the experiment reruns anyway.
  // The clean-shutdown case (final byte is '\n') costs one seek; only an
  // actual fragment pays a rescan, and that streams in fixed chunks so a
  // large journal is never held in memory.
  {
    std::ifstream in(path, std::ios::binary);
    char last = '\n';
    if (in && in.seekg(-1, std::ios::end) && in.get(last) && last != '\n') {
      in.clear();
      in.seekg(0);
      std::streamoff last_newline = -1;
      std::streamoff offset = 0;
      char buffer[65536];
      while (in.read(buffer, sizeof buffer), in.gcount() > 0) {
        const std::streamsize got = in.gcount();
        for (std::streamsize i = 0; i < got; ++i) {
          if (buffer[i] == '\n') {
            last_newline = offset + i;
          }
        }
        offset += got;
      }
      std::filesystem::resize_file(
          path, last_newline < 0
                    ? 0
                    : static_cast<std::uintmax_t>(last_newline) + 1);
    }
  }
  out_.open(path, std::ios::app);
  if (!out_) {
    throw std::runtime_error("cannot open journal " + path +
                             " for appending");
  }
}

std::size_t Journal::append(const util::JsonValue& record) {
  const std::string line = record.dump(0);
  std::lock_guard<std::mutex> lock(mutex_);
  out_ << line << '\n';
  out_.flush();
  if (!out_.good()) {
    throw std::runtime_error("write to journal " + path_ + " failed");
  }
  return line.size() + 1;
}

}  // namespace antdense::campaign
