// The Topology concept: the minimal interface the density-estimation
// engine needs from a graph substrate.
//
// All of the paper's substrates are *regular* graphs (uniform degree) —
// regularity is what keeps uniformly-placed random walkers uniformly
// distributed in every round (Lemma 2 relies on it).  Topologies are
// value types; nodes are cheap handles with a packed 64-bit key used by
// the collision counter.
//
// Implemented models:
//   Torus2D      — the paper's main model (Section 2)
//   Ring         — 1-D torus (Section 4.2)
//   TorusKD      — k-dimensional torus (Section 4.3)
//   Hypercube    — k-dimensional hypercube (Section 4.5)
//   CompleteGraph— the independent-sampling reference (Section 1.1)
//   ExplicitTopology — any regular CSR graph, e.g. random-regular
//                  expanders (Section 4.4)
//
// A concept rather than a virtual base keeps the per-step cost inlined;
// benches push billions of steps through these calls.
//
// Paper: Musco, Su & Lynch (PODC 2016, arXiv:1603.02981); full
// concept-to-header map in docs/ARCHITECTURE.md.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <span>
#include <string>

#include "rng/random.hpp"
#include "rng/xoshiro256pp.hpp"
#include "util/check.hpp"

namespace antdense::graph {

template <typename T>
concept Topology = requires(const T& t, const typename T::node_type& u,
                            rng::Xoshiro256pp& g) {
  typename T::node_type;
  { t.num_nodes() } -> std::convertible_to<std::uint64_t>;
  { t.degree() } -> std::convertible_to<std::uint64_t>;
  { t.random_node(g) } -> std::same_as<typename T::node_type>;
  { t.random_neighbor(u, g) } -> std::same_as<typename T::node_type>;
  { t.key(u) } -> std::same_as<std::uint64_t>;
  { t.name() } -> std::convertible_to<std::string>;
};

/// A topology whose neighbor draw factors into "uniform pick below a
/// node-independent bound, then a pure function of (node, pick)".  The
/// contract, relied on by the vector engine's batched Lemire stepping:
///   random_neighbor(u, g) == pick_step(u, uniform_below(g, pick_bound()))
/// consuming the generator identically.
template <typename T>
concept UniformPickTopology =
    Topology<T> && requires(const T& t, const typename T::node_type& u,
                            std::uint64_t pick) {
      { t.pick_bound() } -> std::convertible_to<std::uint64_t>;
      { t.pick_step(u, pick) } -> std::same_as<typename T::node_type>;
    };

/// Same factoring with a per-node pick bound (irregular-degree families):
///   random_neighbor(u, g) == pick_step(u, uniform_below(g, pick_bound(u)))
template <typename T>
concept VariablePickTopology =
    Topology<T> && requires(const T& t, const typename T::node_type& u,
                            std::uint64_t pick) {
      { t.pick_bound(u) } -> std::convertible_to<std::uint64_t>;
      { t.pick_step(u, pick) } -> std::same_as<typename T::node_type>;
    };

namespace detail {

/// Shared scaffold for topologies whose step needs exactly one raw
/// generator word (ring, torus2d): draws a block of words sequentially
/// (one per node — the stream-compatibility contract), then applies
/// `step(node, word)` in a tight loop the compiler can vectorize.
/// The spans may alias elementwise.
template <typename Node, rng::BitGenerator64 G, typename StepFn>
inline void blocked_random_neighbors(std::span<const Node> in,
                                     std::span<Node> out, G& gen,
                                     StepFn&& step) {
  constexpr std::size_t kBlock = 256;
  std::uint64_t words[kBlock];
  for (std::size_t done = 0; done < in.size();) {
    const std::size_t m = std::min(kBlock, in.size() - done);
    for (std::size_t j = 0; j < m; ++j) {
      words[j] = gen();
    }
    for (std::size_t j = 0; j < m; ++j) {
      out[done + j] = step(in[done + j], words[j]);
    }
    done += m;
  }
}

}  // namespace detail

/// Samples one neighbor for every node in `in`, writing to `out`
/// (`out[i]` replaces `in[i]`; the spans may alias elementwise, so
/// stepping a position array in place is fine).
///
/// The sequential-equivalence rule every batched step obeys: the result
/// and the generator's state afterwards are exactly those of in.size()
/// sequential `out[i] = topo.random_neighbor(in[i], gen)` calls (same
/// draws, same order), so batched and per-agent stepping are
/// interchangeable bit-for-bit at a fixed seed.  That loop is the
/// default; a topology adds a `random_neighbors(in, out, gen)` member
/// only when it does something the loop cannot: raw-word kernels for
/// torus2d and ring, one virtual call per round for AnyTopology.
template <Topology T, rng::BitGenerator64 G>
inline void random_neighbors(const T& topo,
                             std::span<const typename T::node_type> in,
                             std::span<typename T::node_type> out, G& gen) {
  ANTDENSE_CHECK(in.size() == out.size(),
                 "bulk neighbor sampling needs equal-sized spans");
  if constexpr (requires { topo.random_neighbors(in, out, gen); }) {
    topo.random_neighbors(in, out, gen);
  } else {
    for (std::size_t i = 0; i < in.size(); ++i) {
      out[i] = topo.random_neighbor(in[i], gen);
    }
  }
}

/// Computes `out[i] = topo.key(nodes[i])` for every node, dispatching to
/// a batched `keys` member when the topology has one.  Concrete
/// topologies inline the per-node loop; only the type-erased handle
/// (graph::AnyTopology) has the member, so occupancy counting costs one
/// virtual call per round, not one per agent.
template <Topology T>
inline void node_keys(const T& topo,
                      std::span<const typename T::node_type> nodes,
                      std::span<std::uint64_t> out) {
  ANTDENSE_CHECK(nodes.size() == out.size(),
                 "key batching needs equal-sized spans");
  if constexpr (requires { topo.keys(nodes, out); }) {
    topo.keys(nodes, out);
  } else {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      out[i] = topo.key(nodes[i]);
    }
  }
}

}  // namespace antdense::graph
