// E-SHARD — sharded-engine scaling and single-thread parity.
//
// Times the single-stream engine (sim::run_density_walk) against the
// sharded engine (run_density_walk with sim::ShardExec) at threads 1, 2,
// 4, and 8 on the 2-D torus across agent counts — with a vector-engine
// (sim::VectorExec) reference row per cell — printing a
// ns/agent-round table and writing BENCH_shard.json for the CI perf
// gate.  Before
// timing, every cell cross-checks that the sharded collision counts are
// bit-identical across all thread counts — a release-mode smoke test of
// the determinism contract that also catches worker-pool races the unit
// tests might miss.
//
// Flags:
//   --out=PATH        JSON output path (default BENCH_shard.json)
//   --tiny            CI smoke mode: small sizes, seconds total
//   --reps=N          timing repetitions, best-of (default 3; 5 in tiny),
//                     each rep running every path of a cell once
//   --budget=STEPS    target agent-steps per timed run (default 2e7)
//
// Acceptance (the bench-smoke perf gate re-checks the first two from
// the JSON):
//   - sharded at threads=1 is within 1.10x of the single-stream engine
//     in every cell (no regression for serial users);
//   - thread counts agree bit-for-bit;
//   - on multi-core hosts, threads=8 at 100k agents shows the headline
//     speedup (>= 3x on >= 8 real cores).  Each record carries
//     "threads" and "hardware_threads" so a row from a 1-core container
//     is not mistaken for a scaling failure.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "graph/torus2d.hpp"
#include "sim/density_sim.hpp"
#include "sim/walk_engine.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace {

using namespace antdense;

constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

struct Cell {
  std::string topology;
  std::uint64_t agents = 0;
  std::uint64_t rounds = 0;
  std::uint32_t shard_size = 0;
  double engine_ns = 0.0;                  // single-stream reference
  double vector_ns = 0.0;                  // engine=vector reference
  double sharded_ns[std::size(kThreadCounts)] = {};
  /// What actually ran: the engine clamps workers to the shard count,
  /// so a "t8" row on a 3-shard cell executes 3-wide.  Recorded in the
  /// JSON so trend readers are never misled.
  unsigned effective_threads[std::size(kThreadCounts)] = {};
};

Cell measure_cell(const graph::Torus2D& topo, std::uint32_t agents,
                  std::uint32_t shard_size, std::uint64_t budget, int reps) {
  sim::DensityConfig cfg;
  cfg.num_agents = agents;
  cfg.rounds = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, budget / agents));
  const std::uint32_t num_shards =
      sim::ShardPlan::make(agents, shard_size).num_shards();

  // Determinism cross-check at a reduced round count: the merged counts
  // must not depend on the worker count.  Only exercises the pool when
  // the cell has more than one shard (tiny mode guarantees it; in full
  // mode the small cells document production behavior, clamp included).
  {
    sim::DensityConfig check_cfg = cfg;
    check_cfg.rounds = std::max<std::uint32_t>(1, cfg.rounds / 16);
    const sim::DensityResult t1 = sim::run_density_walk(
        topo, check_cfg, 0x5EED,
        sim::ShardExec{.threads = 1, .shard_size = shard_size});
    for (unsigned threads : {2u, 8u}) {
      const sim::DensityResult tn = sim::run_density_walk(
          topo, check_cfg, 0x5EED,
          sim::ShardExec{.threads = threads, .shard_size = shard_size});
      if (tn.collision_counts != t1.collision_counts) {
        std::cerr << "FATAL: sharded counts diverged at threads=" << threads
                  << " (" << topo.name() << ", " << agents << " agents)\n";
        std::exit(1);
      }
    }
  }

  Cell cell;
  cell.topology = topo.name();
  cell.agents = agents;
  cell.rounds = cfg.rounds;
  cell.shard_size = shard_size;
  static volatile std::uint64_t sink = 0;
  std::vector<bench::TimedPath> paths = {
      {&cell.engine_ns,
       [&](std::uint64_t rep) {
         sink = sink + sim::run_density_walk(topo, cfg, 0xBE7C + rep)
                           .collision_counts[0];
       }},
      {&cell.vector_ns, [&](std::uint64_t rep) {
         sink = sink + sim::run_density_walk(topo, cfg, 0xBE7C + rep,
                                             sim::VectorExec{})
                           .collision_counts[0];
       }}};
  for (std::size_t t = 0; t < std::size(kThreadCounts); ++t) {
    cell.effective_threads[t] =
        std::min<unsigned>(kThreadCounts[t], num_shards);
    const sim::ShardExec exec{.threads = kThreadCounts[t],
                              .shard_size = shard_size};
    paths.push_back({&cell.sharded_ns[t], [&, exec](std::uint64_t rep) {
                       sink = sink + sim::run_density_walk(topo, cfg,
                                                           0xBE7C + rep, exec)
                                         .collision_counts[0];
                     }});
  }
  bench::time_paths(paths, agents, cfg.rounds, reps);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const bool tiny = args.get_bool("tiny", false);
  const std::string out_path = args.get_string("out", "BENCH_shard.json");
  // The tiny mode still feeds the CI perf gate's hard 1.10x bound, so
  // it keeps a ~1M-agent-step budget and takes best-of-5: on a noisy
  // shared runner only a systematic slowdown survives five attempts —
  // upward jitter cannot fail the gate, a real regression still does.
  const std::uint64_t budget =
      args.get_uint("budget", tiny ? 1'000'000 : 20'000'000);
  const int reps = static_cast<int>(args.get_uint("reps", tiny ? 5 : 3));
  const unsigned hardware = util::default_thread_count();

  bench::print_banner(
      "E-SHARD",
      "sharded WalkEngine scaling vs the single-stream engine",
      "sharded threads=1 within 1.10x of engine everywhere; counts "
      "bit-identical across threads; >= 3x at threads=8 with 100k agents "
      "on >= 8 cores");
  std::cout << "hardware threads: " << hardware << "\n\n";

  // Every cell keeps the PRODUCTION shard grain — the perf gate must
  // measure the configuration serial users actually get, and the shard
  // grain is identity-bearing, so benching a special grain would time a
  // different engine.  Instead the tiny sizes start at 2 x the default
  // grain so even smoke cells are genuinely multi-shard: the worker
  // pool, the concurrent counter, and the determinism cross-check all
  // really run multi-threaded (one 4096-agent shard would silently
  // serialize them, turning the cross-check into a tautology).
  const std::vector<std::uint32_t> agent_counts =
      tiny ? std::vector<std::uint32_t>{2 * sim::ShardPlan::kDefaultShardSize,
                                        8 * sim::ShardPlan::kDefaultShardSize}
           : std::vector<std::uint32_t>{1000, 10000, 100000};

  std::vector<Cell> cells;
  for (std::uint32_t agents : agent_counts) {
    // Keep density ~0.1 so occupancy work is realistic (matches
    // bench_engine's cells for apples-to-apples "engine" rows).
    const auto side = static_cast<std::uint32_t>(
        std::ceil(std::sqrt(static_cast<double>(agents) * 10.0)));
    cells.push_back(measure_cell(graph::Torus2D(side, side), agents,
                                 sim::ShardPlan::kDefaultShardSize, budget,
                                 reps));
  }

  util::Table table({"topology", "agents", "rounds", "engine ns/step",
                     "vector ns/step", "t1 ns/step", "t2 ns/step",
                     "t4 ns/step", "t8 ns/step", "t1/engine", "t8 speedup"});
  std::vector<bench::BenchRecord> records;
  for (const Cell& c : cells) {
    table.add_row(
        {c.topology, util::format_count(c.agents),
         util::format_count(c.rounds), util::format_fixed(c.engine_ns, 2),
         util::format_fixed(c.vector_ns, 2),
         util::format_fixed(c.sharded_ns[0], 2),
         util::format_fixed(c.sharded_ns[1], 2),
         util::format_fixed(c.sharded_ns[2], 2),
         util::format_fixed(c.sharded_ns[3], 2),
         util::format_fixed(c.sharded_ns[0] / c.engine_ns, 3),
         util::format_fixed(c.sharded_ns[0] / c.sharded_ns[3], 2) + "x"});
    records.push_back({"engine", c.topology, c.agents, c.rounds, c.engine_ns,
                       1, hardware});
    records.push_back({"vector", c.topology, c.agents, c.rounds, c.vector_ns,
                       1, hardware});
    for (std::size_t t = 0; t < std::size(kThreadCounts); ++t) {
      // name carries the requested tier; "threads" the width that
      // actually ran after the engine clamped to the shard count.
      records.push_back({"sharded/t" + std::to_string(kThreadCounts[t]),
                         c.topology, c.agents, c.rounds, c.sharded_ns[t],
                         c.effective_threads[t], hardware});
    }
  }
  table.print_markdown(std::cout);

  bench::write_json(out_path, records);
  std::cout << "\nwrote " << records.size() << " records to " << out_path
            << "\n";
  return 0;
}
