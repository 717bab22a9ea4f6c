#include "graph/generators.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/edge_key_set.hpp"
#include "rng/random.hpp"
#include "rng/xoshiro256pp.hpp"
#include "util/check.hpp"

namespace antdense::graph {

namespace {

using Edge = std::pair<Graph::vertex, Graph::vertex>;

Edge ordered(Graph::vertex a, Graph::vertex b) {
  return a < b ? Edge{a, b} : Edge{b, a};
}

}  // namespace

Graph make_ring_graph(std::uint32_t n) {
  ANTDENSE_CHECK(n >= 3, "ring requires n >= 3");
  std::vector<Edge> edges;
  edges.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    edges.emplace_back(i, (i + 1) % n);
  }
  return Graph::from_edges(n, edges);
}

Graph make_path_graph(std::uint32_t n) {
  ANTDENSE_CHECK(n >= 2, "path requires n >= 2");
  std::vector<Edge> edges;
  edges.reserve(n - 1);
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    edges.emplace_back(i, i + 1);
  }
  return Graph::from_edges(n, edges);
}

Graph make_star_graph(std::uint32_t n) {
  ANTDENSE_CHECK(n >= 2, "star requires n >= 2");
  std::vector<Edge> edges;
  edges.reserve(n - 1);
  for (std::uint32_t i = 1; i < n; ++i) {
    edges.emplace_back(0, i);
  }
  return Graph::from_edges(n, edges);
}

Graph make_complete_graph(std::uint32_t n) {
  ANTDENSE_CHECK(n >= 2, "complete graph requires n >= 2");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      edges.emplace_back(i, j);
    }
  }
  return Graph::from_edges(n, edges);
}

Graph make_torus2d_graph(std::uint32_t width, std::uint32_t height) {
  ANTDENSE_CHECK(width >= 3 && height >= 3,
                 "explicit torus requires sides >= 3 (smaller sides create "
                 "parallel edges)");
  const auto id = [width](std::uint32_t x, std::uint32_t y) {
    return y * width + x;
  };
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(width) * height * 2);
  for (std::uint32_t y = 0; y < height; ++y) {
    for (std::uint32_t x = 0; x < width; ++x) {
      edges.emplace_back(id(x, y), id((x + 1) % width, y));
      edges.emplace_back(id(x, y), id(x, (y + 1) % height));
    }
  }
  return Graph::from_edges(width * height, edges);
}

Graph make_hypercube_graph(std::uint32_t k) {
  ANTDENSE_CHECK(k >= 1 && k <= 24, "hypercube dimension must be in [1,24]");
  const std::uint32_t n = 1u << k;
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * k / 2);
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::uint32_t b = 0; b < k; ++b) {
      const std::uint32_t u = v ^ (1u << b);
      if (v < u) {
        edges.emplace_back(v, u);
      }
    }
  }
  return Graph::from_edges(n, edges);
}

Graph make_torus_kd_graph(std::uint32_t dimensions, std::uint32_t side) {
  ANTDENSE_CHECK(dimensions >= 1 && dimensions <= 8,
                 "dimensions must be in [1,8]");
  ANTDENSE_CHECK(side >= 3, "side must be >= 3 for a simple graph");
  std::uint64_t total = 1;
  for (std::uint32_t d = 0; d < dimensions; ++d) {
    total *= side;
    ANTDENSE_CHECK(total <= (1ULL << 31), "torus too large for explicit form");
  }
  const auto n = static_cast<std::uint32_t>(total);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * dimensions);
  std::uint64_t stride = 1;
  for (std::uint32_t d = 0; d < dimensions; ++d) {
    for (std::uint32_t v = 0; v < n; ++v) {
      const std::uint64_t coord = (v / stride) % side;
      const std::uint64_t fwd_coord = (coord + 1) % side;
      const auto u = static_cast<std::uint32_t>(
          v - coord * stride + fwd_coord * stride);
      edges.emplace_back(v, u);
    }
    stride *= side;
  }
  return Graph::from_edges(n, edges);
}

Graph make_erdos_renyi_graph(std::uint32_t n, std::uint64_t m,
                             std::uint64_t seed) {
  ANTDENSE_CHECK(n >= 2, "G(n,m) requires n >= 2");
  const std::uint64_t max_edges =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  ANTDENSE_CHECK(m <= max_edges, "too many edges requested");
  rng::Xoshiro256pp gen(seed);
  EdgeKeySet chosen(static_cast<std::size_t>(m));
  std::vector<Edge> edges;
  edges.reserve(m);
  while (edges.size() < m) {
    const auto a = static_cast<Graph::vertex>(rng::uniform_below(gen, n));
    const auto b = static_cast<Graph::vertex>(rng::uniform_below(gen, n));
    if (a == b) continue;
    if (chosen.insert(edge_key(a, b))) {
      edges.push_back(ordered(a, b));
    }
  }
  return Graph::from_edges(n, edges);
}

Graph make_barabasi_albert_graph(std::uint32_t n, std::uint32_t attach,
                                 std::uint64_t seed) {
  ANTDENSE_CHECK(attach >= 1, "attachment count must be >= 1");
  ANTDENSE_CHECK(n > attach, "n must exceed the attachment count");
  rng::Xoshiro256pp gen(seed);
  // Seed with a clique on (attach + 1) vertices so every early vertex has
  // positive degree, then grow.  `targets` holds one entry per edge
  // endpoint, so sampling an element uniformly is degree-proportional
  // sampling.
  std::vector<Edge> edges;
  std::vector<Graph::vertex> endpoint_pool;
  const std::uint32_t seed_size = attach + 1;
  for (std::uint32_t i = 0; i < seed_size; ++i) {
    for (std::uint32_t j = i + 1; j < seed_size; ++j) {
      edges.emplace_back(i, j);
      endpoint_pool.push_back(i);
      endpoint_pool.push_back(j);
    }
  }
  std::vector<Graph::vertex> picks;
  picks.reserve(attach);
  for (std::uint32_t v = seed_size; v < n; ++v) {
    picks.clear();
    // Sample `attach` distinct existing vertices, degree-proportionally
    // (`attach` is small, so a scan of `picks` beats a set).
    while (picks.size() < attach) {
      const Graph::vertex target =
          endpoint_pool[rng::uniform_below(gen, endpoint_pool.size())];
      if (std::find(picks.begin(), picks.end(), target) == picks.end()) {
        picks.push_back(target);
      }
    }
    for (Graph::vertex target : picks) {
      edges.emplace_back(v, target);
      endpoint_pool.push_back(v);
      endpoint_pool.push_back(target);
    }
  }
  return Graph::from_edges(n, edges);
}

Graph make_watts_strogatz_graph(std::uint32_t n, std::uint32_t k, double beta,
                                std::uint64_t seed) {
  ANTDENSE_CHECK(k >= 1, "k must be >= 1");
  ANTDENSE_CHECK(n > 2 * k, "n must exceed 2k");
  ANTDENSE_CHECK(beta >= 0.0 && beta <= 1.0, "beta must be in [0,1]");
  rng::Xoshiro256pp gen(seed);
  // The ring lattice {v, v+j mod n}, 1 <= j <= k, as (lo, hi) pairs in
  // ascending order: row lo holds lo+1..lo+k (those below n), then the
  // wrapped edges {lo, lo+n-j} for j = k down to lo+1.  n > 2k keeps the
  // two groups apart and every pair distinct.
  const std::size_t num_edges = static_cast<std::size_t>(n) * k;
  std::vector<Edge> lattice;
  lattice.reserve(num_edges);
  for (std::uint32_t lo = 0; lo < n; ++lo) {
    for (std::uint32_t j = 1; j <= k && lo + j < n; ++j) {
      lattice.emplace_back(lo, lo + j);
    }
    for (std::uint32_t j = k; j > lo; --j) {
      lattice.emplace_back(lo, lo + n - j);
    }
  }
  EdgeKeySet edge_set(num_edges);
  for (const Edge& e : lattice) {
    edge_set.insert(edge_key(e.first, e.second));
  }
  // Rewire, in lattice order: each edge keeps its lower endpoint v and
  // redirects the other with probability beta.  An edge whose retries all
  // fail is dropped.
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  for (const Edge& e : lattice) {
    if (!rng::bernoulli(gen, beta)) {
      edges.push_back(e);
      continue;
    }
    edge_set.erase(edge_key(e.first, e.second));
    Graph::vertex v = e.first;
    // Retry until we find a non-duplicate, non-self target; bounded
    // retries keep generation total (fails only on near-complete graphs,
    // excluded by the n > 2k precondition).
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto w = static_cast<Graph::vertex>(rng::uniform_below(gen, n));
      if (w == v) continue;
      if (edge_set.insert(edge_key(v, w))) {
        edges.push_back(ordered(v, w));
        break;
      }
    }
  }
  return Graph::from_edges(n, edges);
}

Graph make_random_regular_graph(std::uint32_t n, std::uint32_t k,
                                std::uint64_t seed) {
  ANTDENSE_CHECK(k >= 1 && k < n, "degree must be in [1, n)");
  ANTDENSE_CHECK((static_cast<std::uint64_t>(n) * k) % 2 == 0,
                 "n*k must be even");
  rng::Xoshiro256pp gen(seed);
  const std::uint64_t num_stubs = static_cast<std::uint64_t>(n) * k;

  // Configuration model with edge-swap repair.  A full restart succeeds
  // with probability ~e^{-(k^2-1)/4}, which is hopeless for k >= 6;
  // instead, pair stubs once and repair each self-loop/parallel edge by
  // double-edge swaps with uniformly random good edges.  Each swap
  // strictly reduces the violation count (we only accept swaps whose two
  // replacement edges are both new and loop-free), so this terminates
  // quickly and leaves degrees untouched.
  std::vector<Graph::vertex> stubs(num_stubs);
  for (std::uint64_t i = 0; i < num_stubs; ++i) {
    stubs[i] = static_cast<Graph::vertex>(i / k);
  }
  rng::shuffle(gen, stubs);
  std::vector<Edge> edges;
  edges.reserve(num_stubs / 2);
  for (std::uint64_t i = 0; i < num_stubs; i += 2) {
    edges.push_back(ordered(stubs[i], stubs[i + 1]));
  }

  EdgeKeySet edge_set(edges.size());
  std::vector<char> is_bad(edges.size(), 0);
  std::vector<std::size_t> bad;  // indices of violating edges
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto [a, b] = edges[i];
    if (a == b || !edge_set.insert(edge_key(a, b))) {
      is_bad[i] = 1;
      bad.push_back(i);
    }
  }

  const std::uint64_t max_attempts = 200ull * num_stubs + 100000ull;
  std::uint64_t attempts = 0;
  while (!bad.empty()) {
    ANTDENSE_ASSERT(++attempts <= max_attempts,
                    "edge-swap repair did not converge");
    const std::size_t bad_idx = bad.back();
    auto [a, b] = edges[bad_idx];
    // Pick a random partner edge; must itself be a good edge (a bad
    // duplicate can share its key with a registered good copy, so the
    // per-index flag — not a key lookup — decides eligibility).
    const std::size_t other_idx = rng::uniform_below(gen, edges.size());
    if (other_idx == bad_idx || is_bad[other_idx]) continue;
    auto [c, d] = edges[other_idx];
    // Randomize orientation of the partner edge.
    if (rng::coin_flip(gen)) {
      std::swap(c, d);
    }
    // Proposed replacements: (a, c) and (b, d).
    if (a == c || b == d) continue;
    if (edge_set.contains(edge_key(a, c)) ||
        edge_set.contains(edge_key(b, d))) {
      continue;
    }
    if (edge_key(a, c) == edge_key(b, d)) continue;
    // Commit: remove the partner edge, add both replacements.  The bad
    // edge was never in edge_set (it was a violation).
    edge_set.erase(edge_key(c, d));
    edge_set.insert(edge_key(a, c));
    edge_set.insert(edge_key(b, d));
    edges[bad_idx] = ordered(a, c);
    edges[other_idx] = ordered(b, d);
    is_bad[bad_idx] = 0;
    bad.pop_back();
  }
  return Graph::from_edges(n, edges);
}

}  // namespace antdense::graph
