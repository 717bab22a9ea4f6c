#include "serve/server.hpp"

#include <poll.h>

#include <cerrno>
#include <stdexcept>
#include <utility>

#include "campaign/spec.hpp"
#include "scenario/experiment.hpp"
#include "scenario/spec.hpp"
#include "serve/protocol.hpp"
#include "util/timer.hpp"

namespace antdense::serve {

namespace {

/// The cacheable form of a result: the scenario document minus every
/// per-invocation field — wall-clock timings, and the spec's `threads`
/// resource knob (the server runs with its own budget; `threads` is
/// excluded from identity, so it must be excluded from the cached bytes
/// too or warm responses could not be byte-identical to cold ones).
std::string canonical_result_payload(const scenario::ScenarioResult& result) {
  util::JsonValue doc = result.to_json();
  doc.erase("elapsed_seconds");
  doc.erase("elapsed_ns");
  util::JsonValue spec_doc = result.spec.to_json();
  spec_doc.erase("threads");
  doc.set("spec", std::move(spec_doc));
  return doc.dump(0);
}

/// Time-based progress-frame throttle, shared by run and sweep
/// requests.  should_send is callable from concurrent trial workers:
/// the check-then-store on last_us_ is deliberately racy (worst case
/// one extra frame), but the done == total final frame passes
/// unconditionally — that guarantee is pinned in tests/test_serve.cpp.
class ProgressThrottle {
 public:
  explicit ProgressThrottle(std::uint32_t interval_ms)
      : interval_us_(static_cast<std::int64_t>(interval_ms) * 1000) {}

  bool should_send(std::uint64_t done, std::uint64_t total) {
    if (done == total || interval_us_ == 0) {
      return true;
    }
    const auto now =
        static_cast<std::int64_t>(timer_.elapsed_nanos() / 1000);
    const std::int64_t last = last_us_.load(std::memory_order_relaxed);
    if (last >= 0 && now - last < interval_us_) {
      return false;
    }
    last_us_.store(now, std::memory_order_relaxed);
    return true;
  }

 private:
  std::int64_t interval_us_;
  util::WallTimer timer_;
  std::atomic<std::int64_t> last_us_{-1};
};

double payload_rel_error(const util::JsonValue& result_doc) {
  const util::JsonValue* truth = result_doc.find("true_value");
  const util::JsonValue* summary = result_doc.find("summary");
  const util::JsonValue* mean =
      summary == nullptr ? nullptr : summary->find("mean");
  if (truth == nullptr || mean == nullptr) {
    return 0.0;
  }
  return scenario::relative_error(mean->as_double(), truth->as_double());
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      registry_(scenario::Registry::built_in()),
      trace_(options_.trace_bytes),
      telemetry_{&metrics_, &trace_},
      cache_(options_.journal_path, options_.cache_bytes, "antdense_serve",
             telemetry_),
      listener_(options_.port) {}

Server::~Server() { stop(); }

void Server::start() {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::wait(int extra_wake_fd) {
  while (!stopping_.load(std::memory_order_acquire) &&
         !shutdown_requested_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    fds[0].fd = shutdown_wake_.read_fd();
    fds[0].events = POLLIN;
    fds[1].fd = extra_wake_fd;
    fds[1].events = POLLIN;
    // The timeout is a guard against a poke racing the flag check, not a
    // busy loop: an idle daemon wakes twice a second to re-check.
    const int n = ::poll(fds, extra_wake_fd >= 0 ? 2 : 1, 500);
    if (n < 0 && errno != EINTR) {
      throw std::runtime_error("serve wait poll failed");
    }
    if (extra_wake_fd >= 0 && (fds[1].revents & POLLIN) != 0) {
      return;  // external termination (signal pipe) — caller decides
    }
  }
}

void Server::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    // Second caller still wants the joins to have happened; the first
    // call does them, and thread::join below is not re-entrant — so
    // just wait for the accept thread to be gone.
    if (accept_thread_.joinable()) {
      // The first stop() is mid-join; joining here would race. The
      // accept loop exits promptly, so a yield loop suffices.
      while (accept_thread_.joinable()) {
        std::this_thread::yield();
      }
    }
    return;
  }
  wake_.poke();
  shutdown_wake_.poke();
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& conn : connections_) {
      conn->socket.shutdown_both();  // unblocks recv in the handler
    }
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  std::vector<std::unique_ptr<Connection>> drained;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    drained.swap(connections_);
  }
  for (auto& conn : drained) {
    if (conn->thread.joinable()) {
      conn->thread.join();
    }
  }
  listener_.close();
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    util::Socket socket = listener_.accept_interruptible(wake_.read_fd());
    if (!socket.valid()) {
      if (stopping_.load(std::memory_order_acquire)) {
        return;
      }
      wake_.drain();  // stray poke; go back to waiting
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->socket = std::move(socket);
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { serve_connection(*raw); });
  }
}

bool Server::send_json(Connection& conn, const util::JsonValue& doc) {
  std::lock_guard<std::mutex> lock(conn.send_mutex);
  return write_frame_json(conn.socket, doc);
}

void Server::serve_connection(Connection& conn) {
  // Every request handled on this connection thread sees the daemon's
  // telemetry as ambient — engine taps inside executed experiments
  // record into the shared registry.
  obs::ScopedTelemetry ambient(&telemetry_);
  std::string payload;
  while (!stopping_.load(std::memory_order_acquire)) {
    const FrameStatus status = read_frame(conn.socket, payload);
    if (status == FrameStatus::kClosed) {
      return;
    }
    if (status != FrameStatus::kOk) {
      // The stream position is gone; one diagnostic, then hang up.
      send_json(conn, make_error(std::string("framing violation: ") +
                                 frame_status_name(status)));
      conn.socket.shutdown_both();
      return;
    }
    util::JsonValue response;
    try {
      const util::JsonValue request = util::JsonValue::parse(payload);
      response = handle_request(conn, request);
    } catch (const std::exception& e) {
      response = make_error(e.what());
    }
    const bool is_shutdown =
        response.find("type") != nullptr &&
        response.find("type")->as_string() == "shutdown_ack";
    if (!send_json(conn, response)) {
      return;
    }
    if (is_shutdown) {
      shutdown_requested_.store(true, std::memory_order_release);
      shutdown_wake_.poke();
      return;
    }
  }
}

util::JsonValue Server::handle_request(Connection& conn,
                                       const util::JsonValue& request) {
  const std::string type = envelope_type(request);
  // Known types only feed the counter label — a client typo must not
  // mint unbounded label cardinality.
  const bool known = type == "run" || type == "sweep" ||
                     type == "cache_stats" || type == "server_info" ||
                     type == "metrics" || type == "shutdown";
  metrics_
      .counter("antdense_serve_requests_total",
               {{"type", known ? type : std::string("unknown")}},
               "Requests handled by type")
      .add(1);
  obs::SpanScope span(&trace_, known ? type : std::string("unknown"),
                      "serve");
  if (type == "run") {
    return handle_run(conn, request);
  }
  if (type == "sweep") {
    return handle_sweep(conn, request);
  }
  if (type == "cache_stats") {
    util::JsonValue response = make_envelope("cache_stats");
    response.set("stats", cache_.stats().to_json());
    return response;
  }
  if (type == "server_info") {
    return server_info();
  }
  if (type == "metrics") {
    // Live stats: the ordered JSON snapshot plus the same registry as
    // Prometheus text exposition, ready for a scraper to relay.
    util::JsonValue response = make_envelope("metrics");
    response.set("metrics", metrics_.to_json());
    response.set("prometheus", metrics_.to_prometheus());
    return response;
  }
  if (type == "shutdown") {
    return make_envelope("shutdown_ack");
  }
  return make_error("unknown request type \"" + type + "\"");
}

util::JsonValue Server::handle_run(Connection& conn,
                                   const util::JsonValue& request) {
  const util::JsonValue* spec_doc = request.find("spec");
  if (spec_doc == nullptr || !spec_doc->is_object()) {
    return make_error("run request needs an object \"spec\"");
  }
  const util::JsonValue* progress_flag = request.find("progress");
  const bool want_progress =
      progress_flag != nullptr && progress_flag->is_bool() &&
      progress_flag->as_bool();

  scenario::ScenarioSpec spec = scenario::ScenarioSpec::from_json(*spec_doc);
  const std::string id = spec.identity_hash(registry_);
  spec.threads = options_.threads;  // resource knob, server's call

  util::WallTimer timer;
  const CacheOutcome outcome = cache_.get_or_run(id, [&]() -> std::string {
    scenario::Experiment experiment(spec, registry_);
    scenario::ProgressHooks hooks;
    hooks.round_stride = options_.progress_stride;
    if (want_progress) {
      const auto throttle =
          std::make_shared<ProgressThrottle>(options_.progress_interval_ms);
      hooks.on_progress = [this, &conn, &id, throttle](std::uint64_t done,
                                                       std::uint64_t total) {
        if (!throttle->should_send(done, total)) {
          return;
        }
        util::JsonValue frame = make_envelope("progress");
        frame.set("id", id);
        frame.set("done", done);
        frame.set("total", total);
        send_json(conn, frame);  // peer-gone is fine; result send notices
      };
    }
    return canonical_result_payload(experiment.run(hooks));
  });

  util::JsonValue response = make_envelope("result");
  response.set("id", id);
  response.set("cache_hit", outcome.cache_hit);
  response.set("elapsed_ns", timer.elapsed_nanos());
  response.set("result", util::JsonValue::parse(outcome.payload));
  return response;
}

util::JsonValue Server::handle_sweep(Connection& conn,
                                     const util::JsonValue& request) {
  const util::JsonValue* campaign_doc = request.find("campaign");
  if (campaign_doc == nullptr || !campaign_doc->is_object()) {
    return make_error("sweep request needs an object \"campaign\"");
  }
  const util::JsonValue* progress_flag = request.find("progress");
  const bool want_progress =
      progress_flag != nullptr && progress_flag->is_bool() &&
      progress_flag->as_bool();

  const campaign::CampaignSpec campaign =
      campaign::CampaignSpec::from_json(*campaign_doc);
  const std::vector<campaign::PlannedExperiment> planned =
      campaign.expand(registry_);

  util::WallTimer timer;
  util::JsonValue experiments = util::JsonValue::array();
  ProgressThrottle throttle(options_.progress_interval_ms);
  std::size_t executed = 0;
  std::size_t cache_hits = 0;
  // Experiments run in expansion order, each through the shared cache
  // under the daemon's own thread budget; a sweep and concurrent run
  // requests for the same spec single-flight together.
  for (std::size_t i = 0; i < planned.size(); ++i) {
    scenario::ScenarioSpec spec = planned[i].spec;
    const std::string id = spec.identity_hash(registry_);
    spec.threads = options_.threads;
    const CacheOutcome outcome = cache_.get_or_run(id, [&]() -> std::string {
      return canonical_result_payload(
          scenario::Experiment(spec, registry_).run());
    });
    if (outcome.cache_hit) {
      ++cache_hits;
    } else {
      ++executed;
    }
    const util::JsonValue result_doc = util::JsonValue::parse(outcome.payload);
    util::JsonValue entry = util::JsonValue::object();
    entry.set("id", id);
    entry.set("cache_hit", outcome.cache_hit);
    const util::JsonValue* truth = result_doc.find("true_value");
    const util::JsonValue* summary = result_doc.find("summary");
    if (truth != nullptr) {
      entry.set("true_value", *truth);
    }
    if (summary != nullptr && summary->find("mean") != nullptr) {
      entry.set("mean", *summary->find("mean"));
    }
    entry.set("rel_error", payload_rel_error(result_doc));
    experiments.push_back(std::move(entry));
    if (want_progress && throttle.should_send(i + 1, planned.size())) {
      util::JsonValue frame = make_envelope("progress");
      frame.set("id", id);
      frame.set("done", static_cast<std::uint64_t>(i + 1));
      frame.set("total", static_cast<std::uint64_t>(planned.size()));
      send_json(conn, frame);
    }
  }

  util::JsonValue response = make_envelope("sweep_result");
  response.set("name", campaign.name);
  response.set("planned", static_cast<std::uint64_t>(planned.size()));
  response.set("executed", static_cast<std::uint64_t>(executed));
  response.set("cache_hits", static_cast<std::uint64_t>(cache_hits));
  response.set("elapsed_ns", timer.elapsed_nanos());
  response.set("experiments", std::move(experiments));
  return response;
}

util::JsonValue Server::server_info() const {
  util::JsonValue response = make_envelope("server_info");
  response.set("serve_schema", kServeSchema);
  response.set("scenario_schema", "antdense.scenario.v1");
  response.set("journal_schema", campaign::kJournalSchema);
  response.set("port", static_cast<std::uint64_t>(listener_.port()));
  response.set("cache_journal",
               options_.journal_path.empty() ? util::JsonValue()
                                             : options_.journal_path);
  response.set("cache_capacity_bytes", options_.cache_bytes);
  response.set("threads", static_cast<std::uint64_t>(options_.threads));
  response.set("progress_interval_ms",
               static_cast<std::uint64_t>(options_.progress_interval_ms));
  util::JsonValue families = util::JsonValue::array();
  for (const std::string& name : registry_.family_names()) {
    families.push_back(name);
  }
  response.set("topology_families", std::move(families));
  util::JsonValue workloads = util::JsonValue::array();
  for (const std::string& name : scenario::workload_names()) {
    workloads.push_back(name);
  }
  response.set("workloads", std::move(workloads));
  return response;
}

}  // namespace antdense::serve
