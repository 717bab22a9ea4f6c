// antdense benchmark program: runs one workload for a fixed time and
// prints, as its last stdout line, one JSON object
//
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
//
// with every end-to-end metric (--trace=0) or every per-layer metric
// (--trace=1).  The lines before it are the host/build stamp and the
// sample counts.  perfbench/run.py builds this binary and forwards its
// flags; see perfbench/README.md.
//
//   antbench --workload=walk-regular|sweep-churn
//            --seed=N --seconds=S [--trace=0|1] [--workdir=DIR]
//            [--commit=REV]
#include <iostream>
#include <thread>

#include "common.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

namespace {

using antdense::util::JsonValue;
using perfbench::Options;
using perfbench::Report;
using perfbench::Tally;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The order and units BENCHMARK.json declares.
const std::vector<MetricSpec>& end_to_end() {
  static const std::vector<MetricSpec> metrics = {
      {"agent_rounds_per_s", "1/s"},   {"time_to_eps_s", "s"},
      {"experiments_per_s", "1/s"},
      {"req_latency_p50_ms", "ms"},    {"req_latency_p90_ms", "ms"},
      {"setup_s", "s"},                {"peak_rss_mib", "MiB"},
      {"ok_frac", "ratio"},
  };
  return metrics;
}

const std::vector<MetricSpec>& per_layer() {
  static const std::vector<MetricSpec> metrics = {
      {"scenario.parse_s", "s"},
      {"scenario.identity_s", "s"},
      {"scenario.experiment_setup_s", "s"},
      {"scenario.run_s", "s"},
      {"scenario.serialize_s", "s"},
      {"graph.build_s", "s"},
      {"graph.torus2d.step_ns", "ns"},
      {"graph.ring.step_ns", "ns"},
      {"graph.hypercube.step_ns", "ns"},
      {"graph.toruskd.step_ns", "ns"},
      {"graph.expander.step_ns", "ns"},
      {"graph.rgg2d.step_ns", "ns"},
      {"graph.gnp.step_ns", "ns"},
      {"graph.ba.step_ns", "ns"},
      {"sim.single.step_s", "s"},
      {"sim.single.count_s", "s"},
      {"sim.single.observe_s", "s"},
      {"sim.single.mutate_s", "s"},
      {"sim.sharded.step_count_s", "s"},
      {"sim.sharded.observe_s", "s"},
      {"sim.sharded.mutate_s", "s"},
      {"sim.vector.step_s", "s"},
      {"sim.vector.count_s", "s"},
      {"sim.vector.observe_s", "s"},
      {"sim.single.agent_rounds", "count"},
      {"sim.sharded.agent_rounds", "count"},
      {"sim.vector.agent_rounds", "count"},
      {"sim.sharded.busy_frac", "ratio"},
      {"sim.sharded.speedup_nt", "ratio"},
      {"sim.mutate_share", "ratio"},
      {"campaign.expand_s", "s"},
      {"campaign.worker_busy_frac", "ratio"},
      {"campaign.journal_append_s", "s"},
      {"campaign.journal_bytes", "bytes"},
      {"campaign.aggregate_s", "s"},
      {"serve.rtt_us", "us"},
      {"serve.frame_encode_us", "us"},
      {"serve.frame_decode_us", "us"},
      {"serve.cache_lookup_us", "us"},
      {"serve.cache_insert_us", "us"},
      {"serve.warm_load_s", "s"},
      {"serve.hits.memory", "count"},
      {"serve.hits.disk", "count"},
      {"serve.hits.coalesced", "count"},
      {"serve.executions", "count"},
      {"serve.errors", "count"},
      {"json.parse_mb_per_s", "MB/s"},
      {"json.dump_mb_per_s", "MB/s"},
      {"obs.trace_overhead", "ratio"},
  };
  return metrics;
}

Options parse_options(const antdense::util::Args& args) {
  args.require_known({"workload", "seed", "seconds", "trace", "workdir",
                      "commit"});
  Options options;
  options.workload = args.get_string("workload", "");
  options.seed = args.get_uint("seed", 1);
  options.seconds = args.get_double("seconds", 10.0);
  options.trace = args.get_int("trace", 0) != 0;
  // One core stays free: a parallel phase waits for its slowest thread,
  // and on a shared host the last core is where the OS, other processes
  // and the neighbours run (see README.md, "Threads").
  const unsigned cores = std::thread::hardware_concurrency();
  options.nproc = cores > 1 ? cores - 1 : 1u;
  options.workdir = args.get_string("workdir", ".");
  options.commit = args.get_string("commit", "");
  if (options.seconds <= 0.0) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse_options(antdense::util::Args(argc, argv));
    JsonValue stamp = JsonValue::object();
    stamp.set("stamp", perfbench::host_stamp(options));
    std::cout << stamp.dump(0) << std::endl;

    Tally tally;
    Report report;
    if (options.workload == "walk-regular") {
      perfbench::run_walk(options, tally, report);
    } else if (options.workload == "sweep-churn") {
      perfbench::run_sweep(options, tally, report);
    } else {
      throw std::invalid_argument("unknown --workload '" + options.workload +
                                  "'");
    }
    report.set("peak_rss_mib", perfbench::peak_rss_mib(), "MiB");
    const std::uint64_t attempted = tally.attempted();
    const std::uint64_t failed = tally.failed();
    report.set("ok_frac",
               attempted == 0 ? 0.0
                              : 1.0 - static_cast<double>(failed) /
                                          static_cast<double>(attempted),
               "ratio");

    Report out;
    for (const MetricSpec& m : options.trace ? per_layer() : end_to_end()) {
      // A layer the workload does not exercise reads 0; a missing
      // end-to-end figure is a bug in this program.
      if (!options.trace && !report.has(m.name)) {
        throw std::logic_error(std::string("no value for ") + m.name);
      }
      out.set(m.name, report.value(m.name), m.unit);
    }
    JsonValue detail = JsonValue::object();
    detail.set("samples", report.samples());
    std::cout << detail.dump(0) << std::endl;

    JsonValue result = JsonValue::object();
    result.set("correct", failed == 0 && attempted > 0);
    result.set("attempted", attempted);
    result.set("failed", failed);
    result.set("metrics", out.metrics_json());
    std::cout << result.dump(0) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "antbench: " << e.what() << "\n";
    return 1;
  }
}
