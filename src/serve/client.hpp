// Client side of the serve protocol: a blocking, single-connection
// convenience wrapper used by antdense_query, the serve tests, and the
// tier-1 `app_serve` check (tests/app_checks.py).  One Client = one
// framed connection; requests are strictly sequential (send one frame,
// read frames until the matching non-progress response).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "util/json.hpp"
#include "util/socket.hpp"

namespace antdense::serve {

class Client {
 public:
  /// Progress callback: (done, total) as reported by the server.
  using ProgressFn = std::function<void(std::uint64_t, std::uint64_t)>;

  /// Connects to the daemon on 127.0.0.1:port; throws on refusal.
  explicit Client(std::uint16_t port);

  /// Sends one envelope and returns the first non-"progress" response,
  /// feeding any progress frames to `on_progress`.  Throws
  /// std::runtime_error when the server hangs up mid-exchange.  An
  /// "error" response is returned, not thrown — the caller decides.
  util::JsonValue request(const util::JsonValue& envelope,
                          const ProgressFn& on_progress = {});

  /// {"type": "run"} for `spec` (ScenarioSpec JSON).  `want_progress`
  /// subscribes to round/trial progress frames.
  util::JsonValue run(const util::JsonValue& spec, bool want_progress = false,
                      const ProgressFn& on_progress = {});

  /// {"type": "sweep"} for `campaign` (CampaignSpec JSON).
  util::JsonValue sweep(const util::JsonValue& campaign,
                        bool want_progress = false,
                        const ProgressFn& on_progress = {});

  util::JsonValue cache_stats();
  util::JsonValue server_info();
  /// {"type": "metrics"}: the daemon's live MetricsRegistry snapshot,
  /// as both ordered JSON ("metrics") and Prometheus text
  /// ("prometheus").
  util::JsonValue metrics();
  /// Asks the daemon to stop; returns its shutdown_ack.
  util::JsonValue shutdown();

  /// Escape hatch for the bad-frame tests: the raw connected socket.
  util::Socket& socket() { return socket_; }

 private:
  util::Socket socket_;
};

}  // namespace antdense::serve
