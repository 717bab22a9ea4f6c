// antdense_serve — the long-running experiment daemon: accepts
// ScenarioSpec / CampaignSpec requests over a loopback framed-JSON
// protocol (serve/protocol.hpp) and answers from a two-tier
// content-addressed result cache (in-memory LRU over a campaign-format
// journal), executing misses on the repo's engines with single-flight
// dedup.  antdense_query is the matching client.
//
//   $ antdense_serve --journal=cache.jsonl --port=7411
//   antdense_serve: listening on 127.0.0.1:7411 ...
//   $ antdense_query run --port=7411 --spec=spec.json
//
// Shutdown: SIGINT/SIGTERM or a {"type": "shutdown"} request; both
// drain cleanly (the journal is flushed per record, so even SIGKILL
// only costs the in-flight experiments).  A restart on the same
// --journal warm-starts the cache from disk.
#include <exception>
#include <iostream>
#include <string>

#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/signal.hpp"

namespace {

using namespace antdense;

void print_usage(std::ostream& os) {
  os << "usage: antdense_serve [flags]\n\n"
     << "  --port=N            listen port on 127.0.0.1 (default 0 = a\n"
     << "                      free port, printed on startup)\n"
     << "  --journal=PATH      cache journal (JSONL, campaign format);\n"
     << "                      omitted = in-memory cache only, nothing\n"
     << "                      survives a restart\n"
     << "  --cache-bytes=N     in-memory cache budget in bytes\n"
     << "                      (default 67108864 = 64 MiB)\n"
     << "  --threads=N         worker threads per executed experiment\n"
     << "                      (default 0 = one per core)\n"
     << "  --progress-stride=N report round progress every N rounds\n"
     << "                      (default 0 = auto, ~64 frames per run)\n"
     << "  --progress-interval-ms=N\n"
     << "                      minimum milliseconds between progress\n"
     << "                      frames per request (default 100; 0 =\n"
     << "                      unthrottled; the final frame always sends)\n"
     << "  --quiet             suppress the startup/shutdown banner\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv);
    if (args.get_bool("help", false)) {
      print_usage(std::cout);
      return 0;
    }
    args.require_known({"port", "journal", "cache-bytes", "threads",
                        "progress-stride", "progress-interval-ms", "quiet",
                        "help"});

    serve::ServerOptions options;
    options.port = static_cast<std::uint16_t>(args.get_uint("port", 0, 65535));
    options.journal_path = args.get_string("journal", "");
    options.cache_bytes = args.get_uint("cache-bytes", 64ull << 20);
    options.threads = static_cast<unsigned>(args.get_uint("threads", 0));
    options.progress_stride =
        static_cast<std::uint32_t>(args.get_uint("progress-stride", 0));
    options.progress_interval_ms = static_cast<std::uint32_t>(
        args.get_uint("progress-interval-ms", options.progress_interval_ms));
    const bool quiet = args.get_bool("quiet", false);

    util::install_termination_handlers();

    serve::Server server(options);
    server.start();
    if (!quiet) {
      std::cout << "antdense_serve: listening on 127.0.0.1:" << server.port()
                << (options.journal_path.empty()
                        ? std::string(" (in-memory cache)")
                        : " (journal " + options.journal_path + ", " +
                              std::to_string(server.cache().stats().warm_loaded) +
                              " warm result(s))")
                << std::endl;  // flushed: scripts scrape the port from here
    }

    server.wait(util::termination_wake_fd());
    if (!quiet) {
      if (util::termination_requested()) {
        std::cout << "antdense_serve: signal " << util::termination_signal()
                  << " received, shutting down" << std::endl;
      } else {
        std::cout << "antdense_serve: shutdown requested, shutting down"
                  << std::endl;
      }
    }
    server.stop();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "antdense_serve: " << e.what() << "\n\n";
    print_usage(std::cerr);
    return 1;
  }
}
