// Property-based contract suite shared by all nine topology families —
// the invariants every substrate must honor regardless of how it stores
// (or refuses to store) its adjacency:
//
//   - neighbor indices stay in [0, num_nodes)
//   - repeated sampling from a node hits exactly its enumerated
//     neighbor set (support agreement between random_neighbor and
//     append_neighbors)
//   - a fixed seed fixes the walk (determinism)
//   - batched random_neighbors equals sequential calls draw-for-draw,
//     leaving the generator in the identical state (the
//     sequential-equivalence rule of graph::random_neighbors that the
//     engines rely on)
//   - batched keys equals scalar keys
//   - each family's walk stream is pinned by content hash
//
// Families are built through the scenario Registry, so this suite also
// exercises every registered spec string end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "graph/any_topology.hpp"
#include "rng/xoshiro256pp.hpp"
#include "scenario/registry.hpp"
#include "util/hash.hpp"

namespace antdense {
namespace {

struct FamilyCase {
  const char* spec;
  bool regular;  // nominal degree() equals every node's true degree
};

const FamilyCase kFamilies[] = {
    {"torus2d:9x7", true},
    {"ring:101", true},
    {"hypercube:6", true},
    {"toruskd:3x4", true},
    {"complete:33", true},
    {"expander:d=4,n=60,seed=3", true},
    {"rgg2d:n=196,r=0.12,seed=4", false},
    {"gnp:n=120,p=0.07,seed=4", false},
    {"ba:n=120,d=3,seed=4", false},
};

graph::AnyTopology build(const FamilyCase& c) {
  return scenario::Registry::built_in().make(c.spec);
}

TEST(TopologyContract, NeighborIndicesStayInRange) {
  for (const FamilyCase& c : kFamilies) {
    SCOPED_TRACE(c.spec);
    const graph::AnyTopology topo = build(c);
    rng::Xoshiro256pp gen(11);
    for (int i = 0; i < 500; ++i) {
      // Node handles may be packed coordinates (Torus2D); key() maps
      // them to dense indices, which is what must stay in range.
      const std::uint64_t u = topo.random_node(gen);
      ASSERT_LT(topo.key(u), topo.num_nodes());
      const std::uint64_t v = topo.random_neighbor(u, gen);
      ASSERT_LT(topo.key(v), topo.num_nodes());
    }
  }
}

TEST(TopologyContract, SamplingSupportMatchesEnumeratedNeighbors) {
  for (const FamilyCase& c : kFamilies) {
    SCOPED_TRACE(c.spec);
    const graph::AnyTopology topo = build(c);
    rng::Xoshiro256pp gen(12);
    // Sample probe nodes through random_node — raw indices are not
    // necessarily valid handles for coordinate-packed families.
    std::set<std::uint64_t> probes;
    while (probes.size() < 3) {
      probes.insert(topo.random_node(gen));
    }
    for (const std::uint64_t u : probes) {
      std::vector<std::uint64_t> listed;
      topo.append_neighbors(u, listed);
      const std::set<std::uint64_t> expected(listed.begin(), listed.end());
      if (c.regular) {
        // Simple regular families: the multiset is the set and its size
        // is the nominal degree.
        EXPECT_EQ(listed.size(), topo.degree());
        EXPECT_EQ(expected.size(), listed.size());
      }
      const int draws =
          std::max<int>(4000, 60 * static_cast<int>(listed.size()));
      std::set<std::uint64_t> support;
      for (int i = 0; i < draws; ++i) {
        const std::uint64_t v = topo.random_neighbor(u, gen);
        if (expected.empty()) {
          // Isolated node (possible under gnp): must self-loop.
          EXPECT_EQ(v, u);
        } else {
          ASSERT_TRUE(expected.count(v))
              << "sampled " << v << " not a listed neighbor of " << u;
        }
        support.insert(v);
      }
      if (!expected.empty()) {
        EXPECT_EQ(support, expected)
            << "after " << draws << " draws from node " << u;
      }
    }
  }
}

TEST(TopologyContract, FixedSeedFixesTheWalk) {
  for (const FamilyCase& c : kFamilies) {
    SCOPED_TRACE(c.spec);
    const graph::AnyTopology topo = build(c);
    constexpr std::uint64_t kSeed = 0xC0117AC7;
    std::vector<std::uint64_t> first;
    std::vector<std::uint64_t> second;
    for (auto* out : {&first, &second}) {
      rng::Xoshiro256pp gen(kSeed);
      std::uint64_t u = topo.random_node(gen);
      for (int i = 0; i < 200; ++i) {
        u = topo.random_neighbor(u, gen);
        out->push_back(u);
      }
    }
    EXPECT_EQ(first, second);
  }
}

TEST(TopologyContract, BatchedEqualsSequentialDrawForDraw) {
  for (const FamilyCase& c : kFamilies) {
    SCOPED_TRACE(c.spec);
    const graph::AnyTopology topo = build(c);
    rng::Xoshiro256pp seeder(77);
    std::vector<std::uint64_t> nodes(137);
    for (auto& u : nodes) {
      u = topo.random_node(seeder);
    }
    rng::Xoshiro256pp batched_gen(0xBA7C4);
    rng::Xoshiro256pp sequential_gen(0xBA7C4);
    std::vector<std::uint64_t> batched(nodes.size());
    topo.random_neighbors(std::span<const std::uint64_t>(nodes),
                          std::span<std::uint64_t>(batched), batched_gen);
    std::vector<std::uint64_t> sequential(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      sequential[i] = topo.random_neighbor(nodes[i], sequential_gen);
    }
    EXPECT_EQ(batched, sequential);
    // Identical stream position afterwards: the next raw draw agrees.
    EXPECT_EQ(batched_gen(), sequential_gen());
  }
}

// Pins each family's walk stream: 4096 sequential random_neighbor draws
// from a fixed seed, then the generator's next raw word (so the number
// of words each step consumes is pinned too).
TEST(TopologyContract, WalkStreamsArePinned) {
  const char* const kPinned[] = {
      "6d055ea17f5544c4",  // torus2d
      "d084de8a98b55e91",  // ring
      "fda4c2ff6d717551",  // hypercube
      "99136bf9e75d66e8",  // toruskd
      "57df079b5783a761",  // complete
      "27e244c04ca031f9",  // expander
      "aa469d652c1690f5",  // rgg2d
      "4f1aedd451b47710",  // gnp
      "27be01d1bc08f44c",  // ba
  };
  static_assert(std::size(kPinned) == std::size(kFamilies));
  for (std::size_t f = 0; f < std::size(kFamilies); ++f) {
    SCOPED_TRACE(kFamilies[f].spec);
    const graph::AnyTopology topo = build(kFamilies[f]);
    rng::Xoshiro256pp gen(0x57EA);
    std::string bytes;
    const auto put = [&bytes](std::uint64_t v) {
      bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
    };
    std::uint64_t u = topo.random_node(gen);
    for (int i = 0; i < 4096; ++i) {
      u = topo.random_neighbor(u, gen);
      put(u);
    }
    put(gen());
    EXPECT_EQ(util::hex64(util::fnv1a64(bytes)), kPinned[f]);
  }
}

TEST(TopologyContract, BatchedKeysEqualScalarKeys) {
  for (const FamilyCase& c : kFamilies) {
    SCOPED_TRACE(c.spec);
    const graph::AnyTopology topo = build(c);
    rng::Xoshiro256pp gen(5);
    std::vector<std::uint64_t> nodes(64);
    for (auto& u : nodes) {
      u = topo.random_node(gen);
    }
    std::vector<std::uint64_t> batched(nodes.size());
    topo.keys(std::span<const std::uint64_t>(nodes),
              std::span<std::uint64_t>(batched));
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_EQ(batched[i], topo.key(nodes[i]));
    }
  }
}

}  // namespace
}  // namespace antdense
