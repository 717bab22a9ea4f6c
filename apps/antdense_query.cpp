// antdense_query — command-line client for the antdense_serve daemon.
//
//   $ antdense_query run --port=7411 --spec=spec.json --out=result.json
//   $ antdense_query run --port=7411 --spec=spec.json --canonical
//   $ antdense_query sweep --port=7411 --campaign=sweep.json
//   $ antdense_query cache-stats --port=7411
//   $ antdense_query server-info --port=7411
//   $ antdense_query shutdown --port=7411
//
// `run` writes the scenario result document.  By default the daemon's
// per-request fields (cache_hit, elapsed_ns) are merged in; --canonical
// writes the cached canonical bytes untouched instead, which is what
// the tier-1 `app_serve` check (tests/app_checks.py) byte-compares
// across cold/warm/restarted requests.
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "serve/client.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using namespace antdense;

void print_usage(std::ostream& os) {
  os << "usage: antdense_query "
        "<run|sweep|cache-stats|server-info|metrics|shutdown>"
        " [flags]\n\n"
     << "common flags:\n"
     << "  --port=N            the daemon's port on 127.0.0.1 (required)\n\n"
     << "run flags:\n"
     << "  --spec=FILE.json    ScenarioSpec to run or fetch (required)\n"
     << "  --progress          print progress frames to stderr\n"
     << "  --out=PATH          write the result document there instead of\n"
     << "                      stdout\n"
     << "  --canonical         write the canonical cached bytes (no\n"
     << "                      cache_hit/elapsed_ns merge; for\n"
     << "                      byte-comparison)\n\n"
     << "sweep flags:\n"
     << "  --campaign=FILE.json  CampaignSpec to sweep (required)\n"
     << "  --progress --out=PATH as for run\n\n"
     << "metrics flags:\n"
     << "  --json              print the registry's JSON snapshot instead\n"
     << "                      of Prometheus text exposition\n";
}

util::JsonValue load_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return util::JsonValue::parse(text.str());
}

void write_output(const util::Args& args, const std::string& text) {
  if (args.has("out")) {
    const std::string path = args.get_string("out", "");
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      throw std::runtime_error("cannot open " + path + " for writing");
    }
    out << text;
    if (!out.good()) {
      throw std::runtime_error("write to " + path + " failed");
    }
    std::cerr << "antdense_query: wrote " << path << "\n";
  } else {
    std::cout << text;
  }
}

std::uint16_t require_port(const util::Args& args) {
  if (!args.has("port")) {
    throw std::invalid_argument("--port=N is required");
  }
  return static_cast<std::uint16_t>(args.get_uint("port", 0, 65535));
}

serve::Client::ProgressFn progress_printer(const util::Args& args) {
  if (!args.get_bool("progress", false)) {
    return {};
  }
  return [](std::uint64_t done, std::uint64_t total) {
    std::cerr << "antdense_query: progress " << done << "/" << total << "\n";
  };
}

/// An "error" response becomes exit code 1 with its message on stderr.
bool check_error(const util::JsonValue& response) {
  const util::JsonValue* type = response.find("type");
  if (type != nullptr && type->is_string() && type->as_string() == "error") {
    const util::JsonValue* message = response.find("message");
    std::cerr << "antdense_query: server error: "
              << (message != nullptr && message->is_string()
                      ? message->as_string()
                      : std::string("(no message)"))
              << "\n";
    return true;
  }
  return false;
}

int cmd_run(const util::Args& args) {
  args.require_known(
      {"port", "spec", "progress", "out", "canonical", "help"});
  if (!args.has("spec")) {
    throw std::invalid_argument("--spec=FILE.json is required");
  }
  const util::JsonValue spec = load_json_file(args.get_string("spec", ""));
  const bool canonical = args.get_bool("canonical", false);
  serve::Client client(require_port(args));
  const util::JsonValue response =
      client.run(spec, args.get_bool("progress", false),
                 progress_printer(args));
  if (check_error(response)) {
    return 1;
  }
  const util::JsonValue* result = response.find("result");
  if (result == nullptr) {
    throw std::runtime_error("malformed response: no result document");
  }
  const util::JsonValue* id = response.find("id");
  const util::JsonValue* cache_hit = response.find("cache_hit");
  const util::JsonValue* elapsed = response.find("elapsed_ns");
  std::cerr << "antdense_query: id="
            << (id != nullptr ? id->as_string() : std::string("?"))
            << " cache_hit="
            << (cache_hit != nullptr && cache_hit->as_bool() ? "true"
                                                             : "false")
            << " elapsed_ns="
            << (elapsed != nullptr ? elapsed->as_uint() : 0) << "\n";
  if (canonical) {
    write_output(args, result->dump(0) + "\n");
  } else {
    util::JsonValue merged = *result;
    if (elapsed != nullptr) {
      merged.set("elapsed_ns", *elapsed);
    }
    if (cache_hit != nullptr) {
      merged.set("cache_hit", *cache_hit);
    }
    write_output(args, merged.dump() + "\n");
  }
  return 0;
}

int cmd_sweep(const util::Args& args) {
  args.require_known({"port", "campaign", "progress", "out", "help"});
  if (!args.has("campaign")) {
    throw std::invalid_argument("--campaign=FILE.json is required");
  }
  const util::JsonValue campaign =
      load_json_file(args.get_string("campaign", ""));
  serve::Client client(require_port(args));
  const util::JsonValue response =
      client.sweep(campaign, args.get_bool("progress", false),
                   progress_printer(args));
  if (check_error(response)) {
    return 1;
  }
  write_output(args, response.dump() + "\n");
  return 0;
}

int cmd_simple(const util::Args& args, const std::string& type) {
  args.require_known({"port", "help"});
  serve::Client client(require_port(args));
  util::JsonValue response;
  if (type == "cache_stats") {
    response = client.cache_stats();
  } else if (type == "server_info") {
    response = client.server_info();
  } else {
    response = client.shutdown();
  }
  if (check_error(response)) {
    return 1;
  }
  std::cout << response.dump() << "\n";
  return 0;
}

int cmd_metrics(const util::Args& args) {
  args.require_known({"port", "json", "help"});
  const bool json = args.get_bool("json", false);
  serve::Client client(require_port(args));
  const util::JsonValue response = client.metrics();
  if (check_error(response)) {
    return 1;
  }
  if (json) {
    const util::JsonValue* metrics = response.find("metrics");
    if (metrics == nullptr) {
      throw std::runtime_error("malformed response: no metrics object");
    }
    std::cout << metrics->dump() << "\n";
  } else {
    const util::JsonValue* text = response.find("prometheus");
    if (text == nullptr || !text->is_string()) {
      throw std::runtime_error("malformed response: no prometheus text");
    }
    std::cout << text->as_string();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2 || std::string(argv[1]) == "--help" ||
        std::string(argv[1]) == "help") {
      print_usage(std::cout);
      return argc < 2 ? 1 : 0;
    }
    const std::string command = argv[1];
    const util::Args args(argc - 1, argv + 1);
    if (args.get_bool("help", false)) {
      print_usage(std::cout);
      return 0;
    }
    if (command == "run") {
      return cmd_run(args);
    }
    if (command == "sweep") {
      return cmd_sweep(args);
    }
    if (command == "cache-stats") {
      return cmd_simple(args, "cache_stats");
    }
    if (command == "server-info") {
      return cmd_simple(args, "server_info");
    }
    if (command == "metrics") {
      return cmd_metrics(args);
    }
    if (command == "shutdown") {
      return cmd_simple(args, "shutdown");
    }
    throw std::invalid_argument("unknown command '" + command +
                                "' (expected run, sweep, cache-stats, "
                                "server-info, metrics, or shutdown)");
  } catch (const std::exception& e) {
    std::cerr << "antdense_query: " << e.what() << "\n\n";
    print_usage(std::cerr);
    return 1;
  }
}
