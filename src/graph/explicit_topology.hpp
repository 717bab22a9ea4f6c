// Adapter exposing any explicit Graph with positive minimum degree
// through the Topology concept.  Regular graphs (Section 4.4 expanders,
// crawled regular networks) run Algorithm 1 unchanged; irregular graphs
// are accepted too so implicit generators (graph/rgg2d.hpp, gnp, ba) can
// be materialized into small explicit references for the differential
// suite — there degree() reports the nominal (average) degree and each
// neighbor draw is uniform over the node's own adjacency slice.  For a
// regular graph the per-node and nominal degrees coincide, so the
// generator stream is bit-identical to the historical regular-only
// adapter.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "graph/graph.hpp"
#include "graph/topology.hpp"
#include "rng/random.hpp"
#include "util/check.hpp"
#include "util/format.hpp"

namespace antdense::graph {

class ExplicitTopology {
 public:
  using node_type = Graph::vertex;

  /// Borrows the graph; the Graph must outlive the adapter.  Every
  /// vertex needs at least one neighbor (walks must be total).
  explicit ExplicitTopology(const Graph& g, std::string label = "explicit")
      : graph_(&g), label_(std::move(label)) {
    ANTDENSE_CHECK(g.num_vertices() >= 1, "graph must be non-empty");
    ANTDENSE_CHECK(g.min_degree() >= 1,
                   "ExplicitTopology requires minimum degree >= 1 "
                   "(walks must be total)");
    std::uint32_t d = 0;
    regular_ = g.is_regular(&d);
    degree_ = regular_ ? d
                       : static_cast<std::uint32_t>(
                             std::llround(g.average_degree()));
    if (degree_ < 1) {
      degree_ = 1;
    }
  }

  std::uint64_t num_nodes() const { return graph_->num_vertices(); }
  /// Nominal degree: exact for regular graphs, the rounded average
  /// otherwise.  Per-node truth is graph().degree(u).
  std::uint64_t degree() const { return degree_; }
  bool is_regular() const { return regular_; }
  const Graph& graph() const { return *graph_; }

  template <rng::BitGenerator64 G>
  node_type random_node(G& gen) const {
    return static_cast<node_type>(
        rng::uniform_below(gen, graph_->num_vertices()));
  }

  template <rng::BitGenerator64 G>
  node_type random_neighbor(node_type u, G& gen) const {
    return pick_step(u, rng::uniform_below(gen, pick_bound(u)));
  }

  /// VariablePickTopology factoring of random_neighbor: pick below the
  /// node's own degree, then index its adjacency slice.
  std::uint64_t pick_bound(node_type u) const { return graph_->degree(u); }
  node_type pick_step(node_type u, std::uint64_t pick) const {
    return graph_->neighbor(u, static_cast<std::uint32_t>(pick));
  }

  std::uint64_t key(node_type u) const { return u; }

  template <typename Fn>
  void for_each_neighbor(node_type u, Fn&& fn) const {
    for (node_type v : graph_->neighbors(u)) {
      fn(v);
    }
  }

  std::string name() const {
    if (regular_) {
      return label_ + "(" + std::to_string(num_nodes()) +
             ",d=" + std::to_string(degree_) + ")";
    }
    return label_ + "(" + std::to_string(num_nodes()) + ",davg=" +
           util::format_shortest(graph_->average_degree()) + ")";
  }

 private:
  const Graph* graph_;
  std::uint32_t degree_;
  bool regular_ = false;
  std::string label_;
};

static_assert(Topology<ExplicitTopology>);
static_assert(VariablePickTopology<ExplicitTopology>);

}  // namespace antdense::graph
