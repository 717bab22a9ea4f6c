// The daemon probe of every traced run: two seconds of serve-mix
// traffic against an in-process antdense daemon (serve::Server on
// 127.0.0.1, port 0) warm-started from a journal, driven by one
// closed-loop serve::Client per busy thread, the way antdense_query and
// scripts call it.  It yields the daemon's cache counters, the cost of
// its warm start and serve-mix's output checks.
#include <barrier>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "checks.hpp"
#include "inputs.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using antdense::serve::Client;
using antdense::serve::Server;
using antdense::serve::ServerOptions;
using antdense::util::JsonValue;

// Two seconds of traffic are enough for the daemon's counters and checks.
constexpr double kDaemonProbeSeconds = 2.0;

/// What two seconds of traffic leave behind for report_daemon.
struct ServePass {
  std::uint64_t errors = 0;
  JsonValue metrics;  // the daemon's registry at the end
  std::uint64_t pool_bytes = 0;  // payload bytes of the whole pool
  std::string journal_path;
};

/// Shared, thread-safe view of every payload seen so far, by id: the
/// first answer for an id is checked against the paper, every later one
/// must repeat its bytes.
class PayloadBook {
 public:
  explicit PayloadBook(Tally& tally) : tally_(tally) {}

  /// `planned`: the request asked for a Theorem-1 plan (rounds 0).
  void see(const std::string& id, const JsonValue& result, bool planned) {
    const std::string bytes = result.dump(0);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto [it, fresh] = payloads_.try_emplace(id, bytes);
      if (!fresh) {
        const std::string diff = payload_mismatch(it->second, bytes);
        tally_.record(diff.empty(), "serve " + id + ": warm != cold, " + diff);
        return;
      }
    }
    check(id, result, planned);
  }

  /// Lemma 2 over the density answers, pooled per graph and agent count
  /// (every pool topology is regular).
  void check_pools() const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, entry] : pools_) {
      const auto& [pool, truth] = entry;
      tally_.record(lemma2_unbiased(pool.mean(), pool.reported_se(), truth),
                    "serve " + key + ": Lemma 2, pooled mean " +
                        std::to_string(pool.mean()) + " truth " +
                        std::to_string(truth));
    }
  }

  /// Theorem 1's verdict as the campaign aggregate's envelope check: the
  /// mean within-eps fraction over every distinct planned answer reaches
  /// 1 - delta.  One walk of 2304 agents alone does not concentrate
  /// enough to be judged by itself (its fraction ranges 0.89-0.97).
  bool planned_envelope_met(double delta) const {
    std::lock_guard<std::mutex> lock(mutex_);
    double sum = 0.0;
    for (const double w : planned_within_) {
      sum += w;
    }
    return !planned_within_.empty() &&
           theorem1_verdict(sum / static_cast<double>(planned_within_.size()),
                            delta);
  }

 private:
  void check(const std::string& id, const JsonValue& result, bool planned) {
    const JsonValue& summary = *result.find("summary");
    const double mean = summary.find("mean")->as_double();
    const double truth = result.find("true_value")->as_double();
    if (result.find("workload")->as_string() == "property") {
      tally_.record(mean >= 0.0 && mean <= 1.0,
                    "serve " + id + ": property frequency out of [0, 1]");
      return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    auto& [pool, pool_truth] =
        pools_[result.find("topology")->as_string() + " agents " +
               result.find("spec")->find("agents")->dump(0)];
    pool.add(mean, summary.find("standard_error")->as_double());
    pool_truth = truth;
    if (planned) {
      planned_within_.push_back(summary.find("within_eps")->as_double());
    }
  }

 private:
  Tally& tally_;
  mutable std::mutex mutex_;
  std::map<std::string, std::string> payloads_;
  std::vector<double> planned_within_;
  // Density answers by graph and agent count: one expectation each.
  std::map<std::string, std::pair<MeanPool, double>> pools_;  // + truth
};

/// Runs a client thread's body; a throw (the daemon hung up, say) counts
/// as one failed operation instead of ending the process.
template <typename Body>
void guarded(Tally& tally, const std::string& what, Body&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    tally.record(false, what + ": " + e.what());
  }
}

ServePass serve_pass(const Options& options, Tally& tally) {
  const std::vector<JsonValue> pool = serve_pool(options.seed);
  ServePass pass;
  PayloadBook book(tally);
  pass.journal_path = options.workdir + "/serve-journal.jsonl";
  std::filesystem::remove(pass.journal_path);

  ServerOptions server_options;
  server_options.journal_path = pass.journal_path;
  server_options.threads = 1;

  // Pre-phase: a first daemon computes the whole pool into the journal
  // the second daemon warm-starts from.
  {
    Server filler(server_options);
    filler.start();
    std::vector<std::thread> clients;
    std::mutex bytes_mutex;
    for (unsigned c = 0; c < options.nproc; ++c) {
      clients.emplace_back([&, c] {
        guarded(tally, "serve pre-phase", [&] {
          Client client(filler.port());
          for (std::size_t i = c; i < pool.size(); i += options.nproc) {
            const JsonValue response = client.run(pool[i]);
            const JsonValue* result = response.find("result");
            tally.record(result != nullptr, "serve pre-phase: error response");
            if (result != nullptr) {
              book.see(response.find("id")->as_string(), *result,
                       pool[i].find("rounds")->as_double() == 0.0);
              std::lock_guard<std::mutex> lock(bytes_mutex);
              pass.pool_bytes += result->dump(0).size();
            }
          }
        });
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
  }
  // Half the pool fits in memory: popular specs hit tier 1, the tail
  // misses it, is read back from the journal and evicts something.
  server_options.cache_bytes = pass.pool_bytes / 2;
  Server server(server_options);
  server.start();

  std::mutex mutex;  // guards pass.errors and new_ids
  std::set<std::string> new_ids;  // requested ids the journal lacked
  std::barrier burst(static_cast<std::ptrdiff_t>(options.nproc));
  const auto start = Clock::now();

  // One closed-loop client: send, wait for the answer, check it, repeat.
  auto client_loop = [&](unsigned c) {
    Client client(server.port());
    for (std::uint64_t index = 0;
         seconds_since(start) < kDaemonProbeSeconds; ++index) {
      const ServeRequest request =
          serve_request(pool, options.seed, c, index);
      if (request.kind == ServeRequest::Kind::kBurst) {
        burst.arrive_and_wait();
      }
      const JsonValue response = client.run(request.spec);
      const JsonValue* result = response.find("result");
      if (result == nullptr) {
        tally.record(false, "serve: error response " + response.dump(0));
        std::lock_guard<std::mutex> lock(mutex);
        ++pass.errors;
        continue;
      }
      const std::string id = response.find("id")->as_string();
      book.see(id, *result,
               request.spec.find("rounds")->as_double() == 0.0);
      if (request.kind == ServeRequest::Kind::kPool) {
        // The whole pool is in the journal before the daemon starts.
        tally.record(response.find("cache_hit")->as_bool(),
                     "serve " + id + ": pool spec executed again");
      } else {
        std::lock_guard<std::mutex> lock(mutex);
        new_ids.insert(id);
      }
    }
  };

  std::vector<std::thread> clients;
  for (unsigned c = 0; c < options.nproc; ++c) {
    clients.emplace_back([&, c] {
      guarded(tally, "serve client", [&] { client_loop(c); });
      // Also after a failure, so no other client waits for this one.
      burst.arrive_and_drop();
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  pass.metrics = server.metrics().to_json();
  server.stop();

  book.check_pools();
  const double delta = pool.front().find("delta")->as_double();
  tally.record(book.planned_envelope_met(delta),
               "serve: Theorem 1 envelope not met by the planned answers");
  const double executions =
      registry_value(pass.metrics, "antdense_cache_executions_total");
  tally.record(executions == static_cast<double>(new_ids.size()),
               "serve: " + std::to_string(executions) + " executions for " +
                   std::to_string(new_ids.size()) + " new ids");
  return pass;
}

/// The daemon's own counters for one pass, and the cost of its warm
/// start over the pass's journal.
void report_daemon(const ServePass& pass, Report& report) {
  const JsonValue& m = pass.metrics;
  report.set("serve.hits.memory",
             registry_value(m, "antdense_cache_hits_total{tier=\"memory\"}"),
             "count");
  report.set("serve.hits.disk",
             registry_value(m, "antdense_cache_hits_total{tier=\"disk\"}"),
             "count");
  report.set(
      "serve.hits.coalesced",
      registry_value(m, "antdense_cache_hits_total{tier=\"coalesced\"}"),
      "count");
  report.set("serve.executions",
             registry_value(m, "antdense_cache_executions_total"), "count");
  // The daemon publishes no error counter; error frames are counted
  // where they arrive.
  report.set("serve.errors", static_cast<double>(pass.errors), "count");
  std::vector<double> load_s;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    const antdense::serve::ResultCache cache(pass.journal_path,
                                             pass.pool_bytes);
    load_s.push_back(seconds_since(t0));
  }
  report.set("serve.warm_load_s", median(load_s), "s");
}

}  // namespace

void probe_daemon(const Options& options, Tally& tally, Report& report) {
  report_daemon(serve_pass(options, tally), report);
}

}  // namespace perfbench
