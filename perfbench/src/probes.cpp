// Per-layer probes: each times calls into one layer's public functions,
// from the benchmark's side, on the workload's own inputs and outputs.
#include <poll.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <thread>

#include "checks.hpp"
#include "graph/any_topology.hpp"
#include "inputs.hpp"
#include "rng/xoshiro256pp.hpp"
#include "scenario/experiment.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/client.hpp"
#include "util/socket.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using antdense::graph::AnyTopology;
using antdense::scenario::Experiment;
using antdense::scenario::Registry;
using antdense::scenario::ScenarioSpec;
using antdense::util::JsonValue;

/// Per-call probes take at least this many samples.
constexpr std::size_t kProbeSamples = 24;

/// Median over `reps` repetitions of the seconds `body` takes.
template <typename Body>
double median_seconds(int reps, Body&& body) {
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    body();
    samples.push_back(seconds_since(t0));
  }
  return median(samples);
}

// One fixed graph per family for graph::random_neighbors, the sizes the
// walk workloads use.
const std::vector<std::pair<std::string, std::string>>& step_probes() {
  static const std::vector<std::pair<std::string, std::string>> probes = {
      {"torus2d", "torus2d:317x317"},
      {"ring", "ring:100000"},
      {"hypercube", "hypercube:17"},
      {"toruskd", "toruskd:3x46"},
      {"expander", "expander:d=8,n=100000,seed=7"},
      {"rgg2d", "rgg2d:n=100000,r=0.00564,seed=7"},
      {"gnp", "gnp:n=2000,p=0.005,seed=7"},
      {"ba", "ba:n=500,d=5,seed=7"},
  };
  return probes;
}

/// Nanoseconds per neighbour draw: batched random_neighbors on the
/// type-erased topology, outside any engine, for at least `budget_s`.
double step_ns(const AnyTopology& topo, std::uint64_t seed, double budget_s) {
  using Node = AnyTopology::node_type;
  antdense::rng::Xoshiro256pp gen(seed);
  std::vector<Node> nodes(256);
  for (Node& n : nodes) {
    n = topo.random_node(gen);
  }
  std::uint64_t steps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < budget_s) {
    topo.random_neighbors(nodes, nodes, gen);
    steps += nodes.size();
    elapsed = seconds_since(t0);
  }
  return elapsed * 1e9 / static_cast<double>(steps);
}

void probe_scenario(const LayerInputs& inputs, Report& report) {
  const Registry& registry = Registry::built_in();
  std::vector<ScenarioSpec> specs;
  const double parse_s = median_seconds(5, [&] {
    specs.clear();
    for (const JsonValue& doc : inputs.specs) {
      specs.push_back(ScenarioSpec::from_json(doc));
      specs.back().validate();
    }
  });
  if (!report.has("scenario.parse_s")) {
    report.set("scenario.parse_s", parse_s, "s");
  }
  report.set("scenario.identity_s", median_seconds(5, [&] {
               for (const ScenarioSpec& spec : specs) {
                 (void)spec.identity_hash(registry);
               }
             }),
             "s");
  if (!report.has("scenario.experiment_setup_s")) {
    report.set("scenario.experiment_setup_s", median_seconds(3, [&] {
                 for (const ScenarioSpec& spec : specs) {
                   const Experiment experiment(spec, registry);
                 }
               }),
               "s");
  }
  if (!report.has("scenario.run_s")) {
    report.set("scenario.run_s", median_seconds(1, [&] {
                 for (const ScenarioSpec& spec : specs) {
                   (void)Experiment(spec, registry).run();
                 }
               }),
               "s");
  }
  if (!report.has("scenario.serialize_s")) {
    std::vector<JsonValue> docs;
    for (const std::string& text : inputs.results) {
      docs.push_back(JsonValue::parse(text));
    }
    report.set("scenario.serialize_s", median_seconds(5, [&] {
                 for (const JsonValue& doc : docs) {
                   (void)doc.dump(0);
                 }
               }),
               "s");
  }
}

void probe_graph(const Options& options, const LayerInputs& inputs,
                 Report& report) {
  const Registry& registry = Registry::built_in();
  std::set<std::string> topologies;
  for (const JsonValue& spec : inputs.specs) {
    topologies.insert(spec.find("topology")->as_string());
  }
  report.set("graph.build_s", median_seconds(3, [&] {
               for (const std::string& topology : topologies) {
                 (void)registry.make(topology);
               }
             }),
             "s");
  for (const auto& [family, spec] : step_probes()) {
    const AnyTopology topo = registry.make(spec);
    report.set("graph." + family + ".step_ns",
               step_ns(topo, mix(options.seed, 0x57E9), 0.08), "ns");
  }
}

void probe_speedup(const Options& options, Tally& tally, Report& report) {
  ScenarioSpec spec = ScenarioSpec::from_json(speedup_spec(options.seed));
  spec.threads = 1;
  const Experiment one(spec);
  spec.threads = options.nproc;
  const Experiment all(spec);
  std::vector<double> t1;
  std::vector<double> tn;
  std::string bytes_one;
  std::string bytes_all;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = Clock::now();
    bytes_one = canonical_result(one.run());
    t1.push_back(seconds_since(t0));
    t0 = Clock::now();
    bytes_all = canonical_result(all.run());
    tn.push_back(seconds_since(t0));
  }
  tally.record(bytes_one == bytes_all,
               "speedup probe: thread counts disagree, " +
                   payload_mismatch(bytes_one, bytes_all));
  report.set("sim.sharded.speedup_nt", median(t1) / median(tn), "ratio");
}

/// write_frame_json / read_frame + parse over a loopback connection, on
/// result envelopes shaped like the daemon's.
void probe_frames(const std::vector<JsonValue>& docs, Report& report) {
  using antdense::util::Socket;
  antdense::util::ListenSocket listener(0);
  antdense::util::WakePipe wake;
  Socket writer = Socket::connect_loopback(listener.port());
  Socket reader = listener.accept_interruptible(wake.read_fd());
  std::vector<JsonValue> envelopes;
  const std::size_t rounds = (kProbeSamples + docs.size() - 1) / docs.size();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const JsonValue& doc : docs) {
      JsonValue envelope = antdense::serve::make_envelope("result");
      envelope.set("id", "probe");
      envelope.set("cache_hit", true);
      envelope.set("result", doc);
      envelopes.push_back(std::move(envelope));
    }
  }
  std::vector<double> encode_us;
  std::thread sender([&] {
    for (const JsonValue& envelope : envelopes) {
      const auto t0 = Clock::now();
      antdense::serve::write_frame_json(writer, envelope);
      encode_us.push_back(seconds_since(t0) * 1e6);
    }
  });
  std::vector<double> decode_us;
  std::string payload;
  for (std::size_t i = 0; i < envelopes.size(); ++i) {
    pollfd ready{reader.fd(), POLLIN, 0};
    ::poll(&ready, 1, -1);  // wait untimed for the frame to start
    const auto t0 = Clock::now();
    antdense::serve::read_frame(reader, payload);
    (void)JsonValue::parse(payload);
    decode_us.push_back(seconds_since(t0) * 1e6);
  }
  sender.join();
  report.set("serve.frame_encode_us", median(encode_us), "us");
  report.set("serve.frame_decode_us", median(decode_us), "us");
}

void probe_cache(const Options& options, const LayerInputs& inputs,
                 Report& report) {
  using antdense::serve::ResultCache;
  std::uint64_t bytes = 0;
  for (const std::string& payload : inputs.results) {
    bytes += payload.size();
  }
  {
    ResultCache cache("", bytes * 2 + 1);
    for (std::size_t i = 0; i < inputs.results.size(); ++i) {
      cache.get_or_run("probe-" + std::to_string(i),
                       [&] { return inputs.results[i]; });
    }
    std::vector<double> lookup_us;
    std::string payload;
    for (int rep = 0; rep < 16; ++rep) {
      for (std::size_t i = 0; i < inputs.results.size(); ++i) {
        const auto t0 = Clock::now();
        cache.lookup("probe-" + std::to_string(i), &payload);
        lookup_us.push_back(seconds_since(t0) * 1e6);
      }
    }
    report.set("serve.cache_lookup_us", median(lookup_us), "us");
  }
  // Inserts with a precomputed payload: journal append + LRU, under a
  // memory budget of half the payloads so inserts also evict.
  const std::string journal = options.workdir + "/probe-cache.jsonl";
  std::filesystem::remove(journal);
  std::vector<double> insert_us;
  {
    ResultCache cache(journal, bytes / 2 + 1);
    const std::size_t n = inputs.results.size();
    for (std::size_t rep = 0; rep < (kProbeSamples + n - 1) / n; ++rep) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::string id =
            "probe-" + std::to_string(rep) + "-" + std::to_string(i);
        const auto t0 = Clock::now();
        cache.get_or_run(id, [&] { return inputs.results[i]; });
        insert_us.push_back(seconds_since(t0) * 1e6);
      }
    }
  }
  report.set("serve.cache_insert_us", median(insert_us), "us");
  std::filesystem::remove(journal);
}

void probe_rtt(Report& report) {
  antdense::serve::ServerOptions server_options;
  server_options.threads = 1;
  antdense::serve::Server server(server_options);
  server.start();
  antdense::serve::Client client(server.port());
  std::vector<double> rtt_us;
  for (int i = 0; i < 200; ++i) {
    const auto t0 = Clock::now();
    (void)client.server_info();
    rtt_us.push_back(seconds_since(t0) * 1e6);
  }
  server.stop();
  report.set("serve.rtt_us", median(rtt_us), "us");
}

void probe_json(const std::vector<JsonValue>& docs,
                const std::vector<std::string>& texts, Report& report) {
  double bytes = 0.0;
  for (const std::string& text : texts) {
    bytes += static_cast<double>(text.size());
  }
  auto rate = [bytes](auto&& body) {
    std::uint64_t passes = 0;
    const auto t0 = Clock::now();
    do {
      body();
      ++passes;
    } while (seconds_since(t0) < 0.1);
    return bytes * static_cast<double>(passes) / seconds_since(t0) / 1e6;
  };
  report.set("json.parse_mb_per_s", rate([&] {
               for (const std::string& text : texts) {
                 (void)JsonValue::parse(text);
               }
             }),
             "MB/s");
  report.set("json.dump_mb_per_s", rate([&] {
               for (const JsonValue& doc : docs) {
                 (void)doc.dump(0);
               }
             }),
             "MB/s");
}

}  // namespace

std::size_t engine_index(const std::string& engine) {
  const auto& names = engine_names();
  const auto it = std::find(names.begin(), names.end(), engine);
  if (it == names.end()) {
    throw std::invalid_argument("unknown engine " + engine);
  }
  return static_cast<std::size_t>(it - names.begin());
}

void report_latency(Report& report, const std::string& prefix,
                    const std::vector<double>& seconds) {
  report.set(prefix + "_p50_ms", quantile(seconds, 0.5) * 1e3, "ms");
  report.set(prefix + "_p90_ms", quantile(seconds, 0.9) * 1e3, "ms");
}

void check_thread_invariance(const Options& options, Tally& tally) {
  ScenarioSpec spec = ScenarioSpec::from_json(
      invariance_spec(options.workload, options.seed));
  spec.threads = 1;
  const std::string one = canonical_result(Experiment(spec).run());
  spec.threads = options.nproc;
  const std::string all = canonical_result(Experiment(spec).run());
  tally.record(one == all, "thread invariance: " + payload_mismatch(one, all));
}

void report_sim_layers(const JsonValue& snapshot,
                       const std::vector<double>& tally_by_engine,
                       double sharded_wall_s, unsigned threads, Tally& tally,
                       Report& report) {
  static const std::vector<std::vector<std::string>> phases = {
      {"step", "count", "observe", "mutate"},
      {"step_count", "observe", "mutate"},
      {"step", "count", "observe"},
  };
  double all_phases = 0.0;
  double mutate = 0.0;
  double sharded_busy = 0.0;
  for (std::size_t e = 0; e < engine_names().size(); ++e) {
    const std::string& engine = engine_names()[e];
    const double counted = registry_value(
        snapshot, "antdense_engine_agent_steps_total{engine=\"" + engine +
                      "\"}");
    report.set("sim." + engine + ".agent_rounds", counted, "count");
    tally.record(counted == tally_by_engine[e],
                 "sim." + engine + ".agent_rounds " + std::to_string(counted) +
                     " != benchmark tally " +
                     std::to_string(tally_by_engine[e]));
    for (const std::string& phase : phases[e]) {
      const double s = registry_histogram_sum(
          snapshot, "antdense_engine_phase_seconds{engine=\"" + engine +
                        "\",phase=\"" + phase + "\"}");
      report.set("sim." + engine + "." + phase + "_s", s, "s");
      all_phases += s;
      mutate += phase == "mutate" ? s : 0.0;
      sharded_busy += engine == "sharded" ? s : 0.0;
    }
  }
  report.set("sim.sharded.busy_frac",
             sharded_wall_s > 0.0 ? sharded_busy / (threads * sharded_wall_s)
                                  : 0.0,
             "ratio");
  report.set("sim.mutate_share", all_phases > 0.0 ? mutate / all_phases : 0.0,
             "ratio");
}

void probe_layers(const Options& options, const LayerInputs& inputs,
                  Tally& tally, Report& report) {
  probe_scenario(inputs, report);
  probe_graph(options, inputs, report);
  probe_speedup(options, tally, report);
  std::vector<JsonValue> docs;
  for (const std::string& text : inputs.results) {
    docs.push_back(JsonValue::parse(text));
  }
  probe_frames(docs, report);
  probe_cache(options, inputs, report);
  probe_rtt(report);
  probe_json(docs, inputs.results, report);
  probe_daemon(options, tally, report);
}

}  // namespace perfbench
