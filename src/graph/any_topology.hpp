// Runtime topology selection: a value-semantic, type-erased handle over
// any Topology, so scenario specs can pick the substrate at runtime
// ("run the Section 6.1 noise sweep on a hypercube instead of the
// torus") without instantiating a new template binary per graph family.
//
// The paper states Algorithm 1 over *any* regular substrate (Musco, Su
// & Lynch, PODC 2016, arXiv:1603.02981, Section 4), so the erasure
// boundary sits exactly at the Topology concept.  The hot path stays
// fast because the walk engine drives topologies through the *batched*
// calls — random_neighbors for stepping and keys for occupancy — so a
// type-erased round costs two virtual calls total, not one per agent
// step (see docs/ARCHITECTURE.md, "The scenario layer").
//
// AnyTopology satisfies Topology, and graph::random_neighbors /
// graph::node_keys pick up its batched members, so every templated
// driver (run_density_walk, run_property_walk, run_trajectory,
// trial_runner) accepts it unchanged, and walks through the handle are
// bit-identical to walks through the wrapped concrete topology at a
// fixed seed (tests/test_any_topology.cpp pins this differentially).
//
// Node handles are widened to uint64 (every concrete node_type fits).
// Copies share the immutable wrapped topology; all calls are const and
// thread-safe, so one handle can serve parallel trial runners.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/topology.hpp"
#include "graph/vector_step.hpp"
#include "rng/xoshiro256pp.hpp"
#include "rng/xoshiro_wide.hpp"
#include "util/check.hpp"

namespace antdense::graph {

class AnyTopology {
 public:
  using node_type = std::uint64_t;

  /// Wraps a concrete topology by value.
  template <Topology T>
    requires(!std::same_as<std::remove_cvref_t<T>, AnyTopology>)
  explicit AnyTopology(T topo)
      : impl_(std::make_shared<const Model<T>>(std::move(topo), nullptr)) {}

  /// Wraps a topology that *borrows* external storage (e.g. an
  /// ExplicitTopology over a Graph): `payload` is kept alive for the
  /// lifetime of every copy of the handle.
  template <Topology T>
  static AnyTopology with_payload(T topo,
                                  std::shared_ptr<const void> payload) {
    AnyTopology any;
    any.impl_ =
        std::make_shared<const Model<T>>(std::move(topo), std::move(payload));
    return any;
  }

  std::uint64_t num_nodes() const { return impl_->num_nodes(); }
  std::uint64_t degree() const { return impl_->degree(); }

  node_type random_node(rng::Xoshiro256pp& gen) const {
    return impl_->random_node(gen);
  }
  node_type random_neighbor(node_type u, rng::Xoshiro256pp& gen) const {
    return impl_->random_neighbor(u, gen);
  }

  /// Wide-stream overloads for the vector engine (sim::VectorExec).
  /// The virtual interface is typed on the concrete scalar generator, so
  /// the wide word source needs its own entry points; they obey the same
  /// sequential-equivalence contract as graph::vector_step.
  node_type random_node(rng::WideStream& stream) const {
    return impl_->random_node_wide(stream);
  }
  node_type random_neighbor(node_type u, rng::WideStream& stream) const {
    return impl_->random_neighbor_wide(u, stream);
  }

  /// Advances every position one step in place, drawing from the wide
  /// stream — one virtual call per round, forwarding to the wrapped
  /// topology's graph::vector_step path (word kernels / batched Lemire).
  void step_nodes(std::span<node_type> pos, rng::WideStream& stream) const {
    impl_->step_nodes_wide(pos, stream);
  }

  /// Batched stepping — one virtual call for the whole round, forwarding
  /// to graph::random_neighbors on the wrapped topology (same generator
  /// stream as sequential random_neighbor calls, the rule stated there).
  /// `out[i]` replaces `in[i]`; the spans may alias elementwise.
  void random_neighbors(std::span<const node_type> in,
                        std::span<node_type> out,
                        rng::Xoshiro256pp& gen) const {
    ANTDENSE_CHECK(in.size() == out.size(),
                   "bulk neighbor sampling needs equal-sized spans");
    impl_->random_neighbors(in, out, gen);
  }

  std::uint64_t key(node_type u) const { return impl_->key(u); }

  /// Batched key computation — the occupancy-counting counterpart of
  /// random_neighbors, again one virtual call per round.
  void keys(std::span<const node_type> nodes,
            std::span<std::uint64_t> out) const {
    ANTDENSE_CHECK(nodes.size() == out.size(),
                   "key batching needs equal-sized spans");
    impl_->keys(nodes, out);
  }

  /// Appends u's neighbors to `out` (ball enumeration for the generic
  /// local-density workload).  Throws if the wrapped topology cannot
  /// enumerate neighbors.
  void append_neighbors(node_type u, std::vector<node_type>& out) const {
    impl_->append_neighbors(u, out);
  }

  std::string name() const { return impl_->name(); }

  /// The wrapped topology when it is exactly a T, else nullptr — for
  /// consumers needing substrate-specific extras (coordinates, distance).
  template <Topology T>
  const T* target() const {
    const auto* model = dynamic_cast<const Model<T>*>(impl_.get());
    return model == nullptr ? nullptr : &model->topo;
  }

 private:
  AnyTopology() = default;

  struct Concept {
    virtual ~Concept() = default;
    virtual std::uint64_t num_nodes() const = 0;
    virtual std::uint64_t degree() const = 0;
    virtual node_type random_node(rng::Xoshiro256pp& gen) const = 0;
    virtual node_type random_neighbor(node_type u,
                                      rng::Xoshiro256pp& gen) const = 0;
    virtual void random_neighbors(std::span<const node_type> in,
                                  std::span<node_type> out,
                                  rng::Xoshiro256pp& gen) const = 0;
    virtual node_type random_node_wide(rng::WideStream& stream) const = 0;
    virtual node_type random_neighbor_wide(node_type u,
                                           rng::WideStream& stream) const = 0;
    virtual void step_nodes_wide(std::span<node_type> pos,
                                 rng::WideStream& stream) const = 0;
    virtual std::uint64_t key(node_type u) const = 0;
    virtual void keys(std::span<const node_type> nodes,
                      std::span<std::uint64_t> out) const = 0;
    virtual void append_neighbors(node_type u,
                                  std::vector<node_type>& out) const = 0;
    virtual std::string name() const = 0;
  };

  template <Topology T>
  struct Model final : Concept {
    using wrapped_node = typename T::node_type;

    Model(T t, std::shared_ptr<const void> keep)
        : topo(std::move(t)), payload(std::move(keep)) {}

    std::uint64_t num_nodes() const override { return topo.num_nodes(); }
    std::uint64_t degree() const override { return topo.degree(); }

    node_type random_node(rng::Xoshiro256pp& gen) const override {
      return static_cast<node_type>(topo.random_node(gen));
    }
    node_type random_neighbor(node_type u,
                              rng::Xoshiro256pp& gen) const override {
      return static_cast<node_type>(
          topo.random_neighbor(static_cast<wrapped_node>(u), gen));
    }

    void random_neighbors(std::span<const node_type> in,
                          std::span<node_type> out,
                          rng::Xoshiro256pp& gen) const override {
      if constexpr (std::same_as<wrapped_node, node_type>) {
        graph::random_neighbors(topo, in, out, gen);
      } else {
        // Narrower node handles cannot view the uint64 spans directly;
        // step elementwise, which graph::random_neighbors' sequential-
        // equivalence rule guarantees consumes the generator identically.
        for (std::size_t i = 0; i < in.size(); ++i) {
          out[i] = static_cast<node_type>(topo.random_neighbor(
              static_cast<wrapped_node>(in[i]), gen));
        }
      }
    }

    node_type random_node_wide(rng::WideStream& stream) const override {
      return static_cast<node_type>(topo.random_node(stream));
    }
    node_type random_neighbor_wide(node_type u,
                                   rng::WideStream& stream) const override {
      return static_cast<node_type>(
          topo.random_neighbor(static_cast<wrapped_node>(u), stream));
    }

    void step_nodes_wide(std::span<node_type> pos,
                         rng::WideStream& stream) const override {
      if constexpr (std::same_as<wrapped_node, node_type>) {
        graph::vector_step(topo, pos, stream);
      } else {
        // Narrower node handles cannot view the uint64 span; step
        // elementwise — sequential-equivalent by the vector_step
        // contract, so the stream state matches either way.
        for (node_type& p : pos) {
          p = static_cast<node_type>(
              topo.random_neighbor(static_cast<wrapped_node>(p), stream));
        }
      }
    }

    std::uint64_t key(node_type u) const override {
      return topo.key(static_cast<wrapped_node>(u));
    }
    void keys(std::span<const node_type> nodes,
              std::span<std::uint64_t> out) const override {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        out[i] = topo.key(static_cast<wrapped_node>(nodes[i]));
      }
    }

    void append_neighbors(node_type u,
                          std::vector<node_type>& out) const override {
      if constexpr (requires(const T& t, wrapped_node n) {
                      t.for_each_neighbor(n, [](wrapped_node) {});
                    }) {
        topo.for_each_neighbor(static_cast<wrapped_node>(u),
                               [&out](wrapped_node v) {
                                 out.push_back(static_cast<node_type>(v));
                               });
      } else {
        ANTDENSE_CHECK(false, "topology '" + topo.name() +
                                  "' cannot enumerate neighbors");
      }
    }

    std::string name() const override { return topo.name(); }

    T topo;
    std::shared_ptr<const void> payload;
  };

  std::shared_ptr<const Concept> impl_;
};

static_assert(Topology<AnyTopology>);

}  // namespace antdense::graph
