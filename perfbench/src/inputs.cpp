#include "inputs.hpp"

#include <cmath>
#include <utility>

#include "common.hpp"

namespace perfbench {

namespace {

// JSON numbers are doubles: seeds stay well inside 2^53.
constexpr std::uint64_t kSeedModulus = 1000000007;

// Seed roles, so no two inputs share a derived seed.
enum Role : std::uint64_t {
  kSpecSeed = 1,
  kGraphSeed,
  kOrder,
  kInvariance,
  kSpeedup,
  kCampaign,
  kPool,
  kFresh,
  kBurst,
  kPick,
};

/// A rank in [0, n) with Zipf(1) popularity, by inverse CDF.
std::size_t zipf_rank(SplitMix& gen, std::size_t n) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
  }
  double u = gen.uniform01() * total;
  std::size_t rank = 0;
  while (rank + 1 < n) {
    u -= 1.0 / static_cast<double>(rank + 1);
    if (u < 0.0) {
      break;
    }
    ++rank;
  }
  return rank;
}

JsonValue density_spec(const std::string& topology, std::uint64_t agents,
                       std::uint64_t rounds, std::uint64_t trials,
                       const std::string& engine, unsigned threads,
                       std::uint64_t seed) {
  JsonValue spec = JsonValue::object();
  spec.set("topology", topology);
  spec.set("workload", "density");
  spec.set("agents", agents);
  spec.set("rounds", rounds);
  spec.set("eps", 0.2);
  spec.set("delta", 0.1);
  spec.set("trials", trials);
  spec.set("threads", static_cast<std::uint64_t>(threads));
  spec.set("seed", seed % kSeedModulus);
  spec.set("engine", engine);
  return spec;
}

std::string graph_seed(std::uint64_t seed, std::uint64_t index) {
  // Registry graph seeds are plain integers; keep them readable.
  return std::to_string(mix(seed, kGraphSeed, index) % kSeedModulus);
}

template <typename T>
void shuffle(std::vector<T>& items, std::uint64_t seed) {
  SplitMix gen(seed);
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[gen.below(i)]);
  }
}

// Family shapes.  Density is about 0.1 everywhere except the planned
// specs: Theorem 1 plans ~1/(d eps^2) rounds, which at d = 0.1 is 13890
// rounds (15 s per run on 4 cores), so the planned specs sit at d ~ 1
// (393 rounds) to fit several runs into one measurement.
struct Shape {
  std::string family;
  std::string topology;  // "{g}" is replaced by the graph seed
  std::uint64_t agents;
  std::uint64_t rounds;
  std::uint64_t trials;
  std::vector<std::string> engines;
};

std::string with_graph_seed(std::string topology, const std::string& g) {
  const auto at = topology.find("{g}");
  if (at != std::string::npos) {
    topology.replace(at, 3, g);
  }
  return topology;
}

const std::vector<Shape>& walk_shapes() {
  // Trial fan-out engines: ~1e5 nodes, 1e4 agents, 6 trials (whole
  // waves on 2, 3 or 6 threads).  Sharded: ~1e6 nodes, 1e5 agents (25
  // shards of 4096), one trial.
  static const std::vector<Shape> shapes = {
      {"torus2d", "torus2d:317x317", 10049, 200, 6, {"single", "vector"}},
      {"torus2d", "torus2d:1000x1000", 100000, 60, 1, {"sharded"}},
      {"ring", "ring:100000", 10000, 200, 6, {"single", "vector"}},
      {"ring", "ring:1000000", 100000, 60, 1, {"sharded"}},
      {"hypercube", "hypercube:17", 13107, 200, 6, {"single", "vector"}},
      {"hypercube", "hypercube:20", 104857, 60, 1, {"sharded"}},
      {"toruskd", "toruskd:3x46", 9734, 200, 6, {"single", "vector"}},
      {"toruskd", "toruskd:3x100", 100000, 60, 1, {"sharded"}},
      {"expander", "expander:d=8,n=100000,seed={g}", 10000, 200, 6,
       {"single", "vector"}},
      {"expander", "expander:d=8,n=400000,seed={g}", 40000, 150, 1,
       {"sharded"}},
  };
  return shapes;
}

}  // namespace

std::vector<WalkInput> walk_inputs(std::uint64_t seed, unsigned threads) {
  std::vector<WalkInput> out;
  std::uint64_t index = 0;
  for (const Shape& shape : walk_shapes()) {
    // One graph per shape: every engine of a shape walks the same graph.
    const std::string topology =
        with_graph_seed(shape.topology, graph_seed(seed, index));
    for (const std::string& engine : shape.engines) {
      WalkInput input;
      input.spec = density_spec(topology, shape.agents, shape.rounds,
                                shape.trials, engine, threads,
                                mix(seed, kSpecSeed, index++));
      input.family = shape.family;
      out.push_back(std::move(input));
    }
  }
  shuffle(out, mix(seed, kOrder));

  // The Theorem-1-planned spec, sharded, runs twice per pass of the loop
  // (first and halfway) so time_to_eps_s gets enough samples.  49152
  // agents = 12 shards of 4096, several per thread.
  WalkInput planned;
  planned.planned = true;
  planned.family = "torus2d";
  planned.spec = density_spec("torus2d:222x222", 49152, 0, 1, "sharded",
                              threads, mix(seed, kSpecSeed, index));
  out.insert(out.begin() + static_cast<std::ptrdiff_t>(out.size() / 2),
             planned);
  out.insert(out.begin(), std::move(planned));
  return out;
}

JsonValue invariance_spec(const std::string& workload, std::uint64_t seed) {
  const std::uint64_t s = mix(seed, kInvariance);
  JsonValue spec = density_spec("torus2d:64x64", 8192, 100, 1, "sharded", 1, s);
  if (workload == "sweep-churn") {
    spec.set("dynamics", "churn:p_edge=0.002,p_fail=0.001");
  }
  return spec;
}

JsonValue speedup_spec(std::uint64_t seed) {
  return density_spec("torus2d:222x222", 49152, 100, 1, "sharded", 1,
                      mix(seed, kSpeedup));
}

const std::vector<std::string>& sweep_dynamics() {
  // Follows examples/campaigns/churn_sweep.json: churn from zero rate up
  // a few decades, plus the population-drift and detection-fade models.
  static const std::vector<std::string> values = {
      "",
      "churn:p_edge=0,p_fail=0",
      "churn:p_edge=0.002,p_fail=0.001",
      "churn:p_edge=0.032,p_fail=0.016",
      "drift:p_death=0.01,p_birth=0.01",
      "fade:p0=0.1,step=0.02",
  };
  return values;
}

JsonValue sweep_campaign(std::uint64_t seed, unsigned threads) {
  const std::uint64_t s = mix(seed, kCampaign);
  JsonValue campaign = JsonValue::object();
  campaign.set("name", "perfbench-sweep-churn");
  campaign.set("seed", s % kSeedModulus);
  campaign.set("threads", static_cast<std::uint64_t>(threads));

  JsonValue base = JsonValue::object();
  base.set("workload", "density");
  base.set("eps", 0.2);
  base.set("delta", 0.1);
  base.set("trials", std::uint64_t{2});
  campaign.set("base", std::move(base));

  JsonValue axes = JsonValue::array();
  auto grid = [&axes](const std::string& key, JsonValue values) {
    JsonValue axis = JsonValue::object();
    axis.set("kind", "grid");
    axis.set("key", key);
    axis.set("values", std::move(values));
    axes.push_back(std::move(axis));
  };
  {
    // Small walks with an explicit budget, and Theorem-1-planned walks at
    // density ~1 (rounds 0).
    JsonValue axis = JsonValue::object();
    axis.set("kind", "zip");
    JsonValue keys = JsonValue::array();
    keys.push_back("agents");
    keys.push_back("rounds");
    axis.set("keys", std::move(keys));
    JsonValue values = JsonValue::array();
    for (const auto& [agents, rounds] :
         {std::pair<std::uint64_t, std::uint64_t>{58, 400}, {576, 0}}) {
      JsonValue point = JsonValue::array();
      point.push_back(agents);
      point.push_back(rounds);
      values.push_back(std::move(point));
    }
    axis.set("values", std::move(values));
    axes.push_back(std::move(axis));
  }
  {
    // rgg2d answers neighbour queries ~30x slower, so its overlay also
    // shortens the walk (and replaces the planned budget).  Later axes
    // override earlier ones, so these overlays beat the size axis.
    JsonValue axis = JsonValue::object();
    axis.set("kind", "list");
    JsonValue specs = JsonValue::array();
    JsonValue torus = JsonValue::object();
    torus.set("topology", "torus2d:24x24");
    specs.push_back(std::move(torus));
    // On a ring, pair collisions come in bursts, so small walks' means are
    // skewed: at 58 agents about one walk in 150 fails a 4-SE check on its
    // own.  288 agents, for both sizes, keep the pooled check normal.
    JsonValue ring = JsonValue::object();
    ring.set("topology", "ring:576");
    ring.set("agents", std::uint64_t{288});
    specs.push_back(std::move(ring));
    JsonValue rgg = JsonValue::object();
    rgg.set("topology", "rgg2d:n=576,r=0.0814,seed=" + graph_seed(s, 0));
    rgg.set("rounds", std::uint64_t{30});
    specs.push_back(std::move(rgg));
    axis.set("specs", std::move(specs));
    axes.push_back(std::move(axis));
  }
  {
    JsonValue engines = JsonValue::array();
    engines.push_back("single");
    engines.push_back("sharded");
    grid("engine", std::move(engines));
  }
  {
    JsonValue values = JsonValue::array();
    for (const std::string& d : sweep_dynamics()) {
      values.push_back(d);
    }
    grid("dynamics", std::move(values));
  }
  {
    JsonValue seeds = JsonValue::array();
    for (std::uint64_t r = 0; r < 3; ++r) {
      seeds.push_back(mix(s, kSpecSeed, r) % kSeedModulus);
    }
    grid("seed", std::move(seeds));
  }
  campaign.set("axes", std::move(axes));
  return campaign;
}

std::vector<JsonValue> serve_pool(std::uint64_t seed) {
  // Six shapes of a few ms each, cycled down the popularity ranks so
  // every seed gets the same cost mix at the same ranks.
  constexpr std::size_t kPoolSize = 48;
  std::vector<JsonValue> pool;
  for (std::size_t rank = 0; rank < kPoolSize; ++rank) {
    const std::uint64_t s = mix(seed, kPool, rank) % kSeedModulus;
    JsonValue spec;
    switch (rank % 6) {
      case 0:
        spec = density_spec("torus2d:48x48", 231, 400, 2, "single", 1, s);
        break;
      case 1:
        spec = density_spec("toruskd:3x13", 219, 400, 2, "vector", 1, s);
        break;
      case 2:
        spec = density_spec("hypercube:11", 205, 400, 2, "single", 1, s);
        spec.set("workload", "property");
        break;
      case 3:
        spec = density_spec("torus2d:48x48", 231, 400, 2, "vector", 1, s);
        spec.set("workload", "property");
        break;
      case 4:
        // Theorem-1-planned at density ~1: 393 rounds.  The verdict is
        // judged per run, so the population must be large enough for
        // the within-eps fraction to concentrate: at 576 agents about one
        // run in 30 dips below 0.9 although the mean is 0.95.
        spec = density_spec("torus2d:48x48", 2304, 0, 1, "single", 1, s);
        break;
      default:
        spec = density_spec("hypercube:11", 205, 400, 2, "vector", 1, s);
        break;
    }
    spec.erase("threads");  // the server decides
    pool.push_back(std::move(spec));
  }
  return pool;
}

ServeRequest serve_request(const std::vector<JsonValue>& pool,
                           std::uint64_t seed, unsigned client,
                           std::uint64_t index) {
  ServeRequest request;
  if (index % kBurstEvery == kBurstEvery - 1) {
    request.kind = ServeRequest::Kind::kBurst;
    request.spec = pool[0];
    request.spec.set("seed", mix(seed, kBurst, index / kBurstEvery) %
                                 kSeedModulus);
    return request;
  }
  SplitMix gen(mix(seed, kPick, (std::uint64_t{client} << 40) ^ index));
  if (gen.uniform01() < kFreshProbability) {
    request.kind = ServeRequest::Kind::kFresh;
    request.spec = pool[index % pool.size()];
    request.spec.set("seed", mix(seed, kFresh,
                                 (std::uint64_t{client} << 40) ^ index) %
                                 kSeedModulus);
    return request;
  }
  request.spec = pool[zipf_rank(gen, pool.size())];
  return request;
}

}  // namespace perfbench
