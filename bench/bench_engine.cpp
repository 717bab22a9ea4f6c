// E-ENGINE — legacy-vs-engine-vs-type-erased stepping throughput.
//
// Times the frozen pre-engine round loop (sim/legacy_reference.hpp)
// against the observer-based WalkEngine (sim/walk_engine.hpp, via the
// run_density_walk wrapper), against the vector engine (engine=vector:
// wide-lane RNG, branchless word kernels, dense collision counting),
// and against the scalar engine driven through a
// type-erased graph::AnyTopology handle (the scenario layer's hot
// path), across agent counts and topologies, printing a ns/agent-round
// table and writing the same records to a JSON artifact (default
// BENCH_engine.json) for CI trending.  Every record stamps the host's
// hardware_threads so perf numbers carry their context.
//
// Besides the four explicit families, one cell per implicit family
// (rgg2d / gnp / ba) rides along with a step budget scaled to its
// honest per-query cost — O(deg) cell-window scan for rgg2d, O(n) row
// scan for gnp, O(m) edge scan for ba — plus a resident-set column
// that documents the O(agents) memory the implicit layer promises (the
// high-water mark is reset before each cell, so every row reports its
// own peak).
//
// A fifth path, "engine+obs", re-times the scalar engine with the full
// telemetry ambient installed (metrics registry + trace recorder), so
// the cost of observability is a trended number instead of folklore.
// The telemetry-DISABLED gate lives in CI: with no ambient installed,
// the engine rows must stay within 1.05x of the frozen legacy loop on
// the ring/torus2d cells — the dormant probes must cost nothing.
//
// Flags:
//   --out=PATH        JSON output path (default BENCH_engine.json)
//   --tiny            CI smoke mode: small sizes, seconds total
//   --reps=N          timing repetitions, best-of (default 3), each rep
//                     running every path of a cell once (bench::time_paths)
//   --budget=STEPS    target agent-steps per timed run (default 2e7)
//
// Acceptance: the engine path is no slower than the legacy loop at 10k
// agents on the 2-D torus (the batched torus stepping usually makes it
// faster), the anytopology path is within 10% of the engine path there
// (dispatch is per round, not per step), and the JSON must parse and
// carry one record per (path, topology, agents) cell.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "graph/any_topology.hpp"
#include "graph/ba.hpp"
#include "graph/gnp.hpp"
#include "graph/hypercube.hpp"
#include "graph/rgg2d.hpp"
#include "graph/ring.hpp"
#include "graph/torus2d.hpp"
#include "graph/torus_kd.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/density_sim.hpp"
#include "sim/dynamic_world.hpp"
#include "sim/legacy_reference.hpp"
#include "sim/walk_engine.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace antdense;

struct Cell {
  std::string topology;
  std::uint64_t agents = 0;
  std::uint64_t rounds = 0;
  double legacy_ns = 0.0;
  double engine_ns = 0.0;
  double obs_ns = 0.0;  // engine with metrics + tracing ambient installed
  double vector_ns = 0.0;  // engine=vector
  double any_ns = 0.0;  // engine driven through graph::AnyTopology
  double dyn_ns = 0.0;  // AnyTopology engine + attached zero-rate dynamics
  std::uint64_t peak_rss = 0;  // high-water RSS during this cell
};

template <graph::Topology T>
Cell measure_cell(const T& topo, std::uint32_t agents, std::uint64_t budget,
                  int reps) {
  sim::DensityConfig cfg;
  cfg.num_agents = agents;
  cfg.rounds = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, budget / agents));

  bench::reset_peak_rss();
  Cell cell;
  cell.topology = topo.name();
  cell.agents = agents;
  cell.rounds = cfg.rounds;
  // DoNotOptimize equivalent: fold a count into a volatile sink.
  static volatile std::uint64_t sink = 0;
  // Same engine, full telemetry ambient: counters, phase histograms,
  // and the trace ring all live.  The registry persists across reps —
  // exactly how a long-lived process accumulates — so instrument
  // lookup happens once per run via the EngineTap, not per rep.
  obs::MetricsRegistry obs_metrics;
  obs::TraceRecorder obs_trace;
  obs::Telemetry obs_bundle{&obs_metrics, &obs_trace};
  const graph::AnyTopology any(topo);
  // The dynamics layer's overhead row: the same AnyTopology walk with a
  // zero-rate churn model attached — the mutation phase fires every
  // round but mutates nothing, an upper bound on what the layer costs a
  // scenario that never asked for dynamics (whose cfg.dynamics is null
  // and which skips even this).  Trended, not gated.
  sim::ChurnDynamics idle_dyn(any, 0.0, 0.0, 10, 0);
  sim::DensityConfig dyn_cfg = cfg;
  dyn_cfg.dynamics = &idle_dyn;
  bench::time_paths(
      {{&cell.legacy_ns,
        [&](std::uint64_t rep) {
          sink = sink +
                 sim::legacy::run_density_walk(topo, cfg, 0xBE7C + rep)
                     .collision_counts[0];
        }},
       {&cell.engine_ns,
        [&](std::uint64_t rep) {
          sink = sink + sim::run_density_walk(topo, cfg, 0xBE7C + rep)
                            .collision_counts[0];
        }},
       {&cell.obs_ns,
        [&](std::uint64_t rep) {
          obs::ScopedTelemetry ambient(&obs_bundle);
          sink = sink + sim::run_density_walk(topo, cfg, 0xBE7C + rep)
                            .collision_counts[0];
        }},
       {&cell.vector_ns,
        [&](std::uint64_t rep) {
          sink = sink + sim::run_density_walk(topo, cfg, 0xBE7C + rep,
                                              sim::VectorExec{})
                            .collision_counts[0];
        }},
       {&cell.any_ns,
        [&](std::uint64_t rep) {
          sink = sink + sim::run_density_walk(any, cfg, 0xBE7C + rep)
                            .collision_counts[0];
        }},
       {&cell.dyn_ns,
        [&](std::uint64_t rep) {
          const std::vector<double> est =
              sim::run_density_walk(any, dyn_cfg, 0xBE7C + rep).estimates();
          sink = sink + static_cast<std::uint64_t>(est[0] * 1e9);
        }}},
      agents, cfg.rounds, reps);
  cell.peak_rss = bench::peak_rss_bytes();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const bool tiny = args.get_bool("tiny", false);
  const std::string out_path = args.get_string("out", "BENCH_engine.json");
  const std::uint64_t budget =
      args.get_uint("budget", tiny ? 200'000 : 20'000'000);
  // Best-of-3 even in tiny mode: the tiny run feeds the CI vector-vs-
  // engine perf gate, and best-of filtering is what keeps a noisy
  // shared runner from failing it on upward jitter.
  const int reps = static_cast<int>(args.get_uint("reps", 3));

  bench::print_banner(
      "E-ENGINE",
      "unified WalkEngine vs the frozen legacy round loop vs AnyTopology",
      "engine ns/agent-round <= legacy at 10k agents on torus2d; "
      "anytopology within 10% of engine there; dormant telemetry keeps "
      "engine within 1.05x of legacy on ring/torus2d; "
      "BENCH_engine.json parses");

  const std::vector<std::uint32_t> agent_counts =
      tiny ? std::vector<std::uint32_t>{200, 1000}
           : std::vector<std::uint32_t>{1000, 10000, 100000};

  std::vector<Cell> cells;
  for (std::uint32_t agents : agent_counts) {
    // Keep density ~0.1 on the tori so occupancy work is realistic.
    const auto side = static_cast<std::uint32_t>(
        std::ceil(std::sqrt(static_cast<double>(agents) * 10.0)));
    cells.push_back(
        measure_cell(graph::Torus2D(side, side), agents, budget, reps));
    cells.push_back(
        measure_cell(graph::Ring(10 * agents), agents, budget, reps));
    std::uint32_t k = 1;
    while ((1ull << k) < 10ull * agents) {
      ++k;
    }
    cells.push_back(measure_cell(graph::Hypercube(k), agents, budget, reps));
    const auto side3 = static_cast<std::uint32_t>(
        std::ceil(std::cbrt(static_cast<double>(agents) * 10.0)));
    cells.push_back(
        measure_cell(graph::TorusKD(3, side3), agents, budget, reps));
  }

  // One cell per implicit family, step budget scaled to the family's
  // per-query cost so each cell times in seconds, not minutes.  rgg2d
  // answers a neighbor query from an O(deg) cell-window scan, so it
  // takes the full budget; gnp scans its whole O(n) row and ba its
  // whole O(m) edge list per query, so their budgets shrink to match.
  {
    const std::uint32_t implicit_agents = tiny ? 200 : 1000;
    const auto rgg_nodes = static_cast<std::uint64_t>(implicit_agents) * 10;
    // ~8 expected neighbors; rounded so the topology label stays short.
    const double radius =
        std::round(1e4 * std::sqrt(8.0 / (3.14159265358979323846 *
                                          static_cast<double>(rgg_nodes)))) /
        1e4;
    cells.push_back(measure_cell(graph::Rgg2D(rgg_nodes, radius, 7),
                                 implicit_agents,
                                 std::max<std::uint64_t>(1, budget / 10),
                                 reps));
    cells.push_back(measure_cell(graph::Gnp(2000, 0.004, 7),
                                 implicit_agents,
                                 std::max<std::uint64_t>(1, budget / 100),
                                 reps));
    cells.push_back(measure_cell(graph::Ba(2000, 4, 7), implicit_agents,
                                 std::max<std::uint64_t>(1, budget / 400),
                                 reps));
  }

  util::Table table({"topology", "agents", "rounds", "legacy ns/step",
                     "engine ns/step", "obs ns/step", "vector ns/step",
                     "any ns/step", "dyn ns/step", "obs ratio",
                     "vector ratio", "erasure overhead", "dyn overhead",
                     "peak rss MiB"});
  std::vector<bench::BenchRecord> records;
  for (const Cell& c : cells) {
    table.add_row({c.topology, util::format_count(c.agents),
                   util::format_count(c.rounds),
                   util::format_fixed(c.legacy_ns, 2),
                   util::format_fixed(c.engine_ns, 2),
                   util::format_fixed(c.obs_ns, 2),
                   util::format_fixed(c.vector_ns, 2),
                   util::format_fixed(c.any_ns, 2),
                   util::format_fixed(c.dyn_ns, 2),
                   util::format_fixed(c.obs_ns / c.engine_ns, 3),
                   util::format_fixed(c.vector_ns / c.engine_ns, 3),
                   util::format_fixed(c.any_ns / c.engine_ns, 3),
                   util::format_fixed(c.dyn_ns / c.any_ns, 3),
                   util::format_fixed(
                       static_cast<double>(c.peak_rss) / (1024.0 * 1024.0),
                       1)});
    bench::BenchRecord base;
    base.topology = c.topology;
    base.agents = c.agents;
    base.rounds = c.rounds;
    base.peak_rss_bytes = c.peak_rss;
    // Honest host width: perf claims in this artifact are meaningless
    // without knowing how wide the bench machine actually was.
    base.hardware_threads = std::thread::hardware_concurrency();
    base.name = "legacy";
    base.ns_per_agent_round = c.legacy_ns;
    records.push_back(base);
    base.name = "engine";
    base.ns_per_agent_round = c.engine_ns;
    records.push_back(base);
    base.name = "engine+obs";
    base.ns_per_agent_round = c.obs_ns;
    records.push_back(base);
    base.name = "vector";
    base.ns_per_agent_round = c.vector_ns;
    records.push_back(base);
    base.name = "anytopology";
    base.ns_per_agent_round = c.any_ns;
    records.push_back(base);
    base.name = "any+dyn0";
    base.ns_per_agent_round = c.dyn_ns;
    records.push_back(base);
  }
  table.print_markdown(std::cout);

  bench::write_json(out_path, records);
  std::cout << "\nwrote " << records.size() << " records to " << out_path
            << "\n";
  return 0;
}
