// E17 — engine microbenchmarks (google-benchmark): raw step throughput
// per topology, collision-counter operations, full simulator rounds, and
// the result serialize / parse layer every request and journal line
// pays.  These are the numbers that size every other experiment's
// runtime.
#include <benchmark/benchmark.h>

#include "graph/complete.hpp"
#include "graph/explicit_topology.hpp"
#include "graph/generators.hpp"
#include "graph/hypercube.hpp"
#include "graph/ring.hpp"
#include "graph/torus2d.hpp"
#include "graph/torus_kd.hpp"
#include "rng/xoshiro256pp.hpp"
#include "scenario/experiment.hpp"
#include "sim/collision_counter.hpp"
#include "sim/density_sim.hpp"
#include "util/json.hpp"

namespace antdense {
namespace {

void BM_Xoshiro256pp(benchmark::State& state) {
  rng::Xoshiro256pp gen(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen());
  }
}
BENCHMARK(BM_Xoshiro256pp);

template <typename T>
void walk_bench(benchmark::State& state, const T& topo) {
  rng::Xoshiro256pp gen(2);
  auto u = topo.random_node(gen);
  for (auto _ : state) {
    u = topo.random_neighbor(u, gen);
    benchmark::DoNotOptimize(u);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_StepTorus2D(benchmark::State& state) {
  walk_bench(state, graph::Torus2D(1024, 1024));
}
BENCHMARK(BM_StepTorus2D);

void BM_StepRing(benchmark::State& state) {
  walk_bench(state, graph::Ring(1 << 20));
}
BENCHMARK(BM_StepRing);

void BM_StepTorus4D(benchmark::State& state) {
  walk_bench(state, graph::TorusKD(4, 32));
}
BENCHMARK(BM_StepTorus4D);

void BM_StepHypercube(benchmark::State& state) {
  walk_bench(state, graph::Hypercube(20));
}
BENCHMARK(BM_StepHypercube);

void BM_StepComplete(benchmark::State& state) {
  walk_bench(state, graph::CompleteGraph(1 << 20));
}
BENCHMARK(BM_StepComplete);

void BM_StepExplicitRegular(benchmark::State& state) {
  static const graph::Graph g = graph::make_random_regular_graph(4096, 8, 3);
  walk_bench(state, graph::ExplicitTopology(g, "rr"));
}
BENCHMARK(BM_StepExplicitRegular);

// The `expander:` build alone: make_random_regular_graph(n, d) at the
// walk-regular sizes, edge set and Graph::from_edges included.
void BM_RandomRegularBuild(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto d = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::make_random_regular_graph(n, d, 1));
  }
  state.SetItemsProcessed(state.iterations() * n * d / 2);
}
BENCHMARK(BM_RandomRegularBuild)
    ->Args({100000, 8})
    ->Args({400000, 8})
    ->Unit(benchmark::kMillisecond);

void BM_CollisionCounterAdd(benchmark::State& state) {
  const auto agents = static_cast<std::size_t>(state.range(0));
  sim::CollisionCounter counter(agents);
  rng::Xoshiro256pp gen(4);
  std::vector<std::uint64_t> keys(agents);
  for (auto& k : keys) {
    k = gen();
  }
  for (auto _ : state) {
    counter.begin_round();
    for (std::uint64_t k : keys) {
      benchmark::DoNotOptimize(counter.add(k));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(agents));
}
BENCHMARK(BM_CollisionCounterAdd)->Arg(256)->Arg(4096)->Arg(65536);

void BM_DensitySimRound(benchmark::State& state) {
  const auto agents = static_cast<std::uint32_t>(state.range(0));
  const graph::Torus2D torus(256, 256);
  sim::DensityConfig cfg;
  cfg.num_agents = agents;
  cfg.rounds = 64;
  std::uint64_t seed = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_density_walk(torus, cfg, seed++));
  }
  // agent-rounds per second.
  state.SetItemsProcessed(state.iterations() * 64 *
                          static_cast<std::int64_t>(agents));
}
BENCHMARK(BM_DensitySimRound)->Arg(512)->Arg(6554);

/// A density result the size of one walk-regular experiment: 60k
/// per-agent estimates c/t, each a full 17-digit number in the document.
const scenario::ScenarioResult& large_result() {
  static const scenario::ScenarioResult result = [] {
    scenario::ScenarioResult r;
    r.spec.topology = "torus2d:222x222";
    r.spec.agents = 60000;
    r.spec.rounds = 394;
    r.topology_name = "torus2d(222x222)";
    r.num_nodes = 222 * 222;
    r.true_value = 59999.0 / (222.0 * 222.0);
    rng::Xoshiro256pp gen(6);
    r.estimates.resize(60000);
    for (double& e : r.estimates) {
      e = static_cast<double>(gen() % 2000) / 394.0;
    }
    return r;
  }();
  return result;
}

void BM_ResultDump(benchmark::State& state) {
  const scenario::ScenarioResult& result = large_result();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = result.to_json().dump(0);
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ResultDump)->Unit(benchmark::kMillisecond);

void BM_JsonParse(benchmark::State& state) {
  const std::string text = large_result().to_json().dump(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::JsonValue::parse(text));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_JsonParse)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace antdense

BENCHMARK_MAIN();
