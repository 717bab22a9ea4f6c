#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>

#include "graph/algos.hpp"
#include "util/hash.hpp"

namespace antdense::graph {
namespace {

TEST(RingGraph, CycleStructure) {
  const Graph g = make_ring_graph(8);
  EXPECT_EQ(g.num_vertices(), 8u);
  EXPECT_EQ(g.num_edges(), 8u);
  std::uint32_t d = 0;
  EXPECT_TRUE(g.is_regular(&d));
  EXPECT_EQ(d, 2u);
  EXPECT_TRUE(is_connected(g));
}

TEST(PathGraph, EndpointsDegreeOne) {
  const Graph g = make_path_graph(5);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(4), 1u);
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_TRUE(is_connected(g));
}

TEST(StarGraph, HubAndLeaves) {
  const Graph g = make_star_graph(10);
  EXPECT_EQ(g.degree(0), 9u);
  for (Graph::vertex v = 1; v < 10; ++v) {
    EXPECT_EQ(g.degree(v), 1u);
  }
}

TEST(CompleteGraphGen, AllPairsConnected) {
  const Graph g = make_complete_graph(6);
  EXPECT_EQ(g.num_edges(), 15u);
  std::uint32_t d = 0;
  EXPECT_TRUE(g.is_regular(&d));
  EXPECT_EQ(d, 5u);
  EXPECT_EQ(diameter(g), 1u);
}

TEST(Torus2DGraph, FourRegularAndConnected) {
  const Graph g = make_torus2d_graph(5, 7);
  EXPECT_EQ(g.num_vertices(), 35u);
  std::uint32_t d = 0;
  EXPECT_TRUE(g.is_regular(&d));
  EXPECT_EQ(d, 4u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.num_edges(), 70u);
}

TEST(Torus2DGraph, EvenSidesBipartite) {
  EXPECT_TRUE(is_bipartite(make_torus2d_graph(4, 6)));
  EXPECT_FALSE(is_bipartite(make_torus2d_graph(5, 5)));
}

TEST(HypercubeGraph, StructureMatches) {
  const Graph g = make_hypercube_graph(4);
  EXPECT_EQ(g.num_vertices(), 16u);
  std::uint32_t d = 0;
  EXPECT_TRUE(g.is_regular(&d));
  EXPECT_EQ(d, 4u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(is_bipartite(g));
  EXPECT_EQ(diameter(g), 4u);
}

TEST(TorusKDGraph, ThreeDimensional) {
  const Graph g = make_torus_kd_graph(3, 4);
  EXPECT_EQ(g.num_vertices(), 64u);
  std::uint32_t d = 0;
  EXPECT_TRUE(g.is_regular(&d));
  EXPECT_EQ(d, 6u);
  EXPECT_TRUE(is_connected(g));
}

TEST(TorusKDGraph, MatchesTorus2DGenerator) {
  const Graph a = make_torus_kd_graph(2, 5);
  const Graph b = make_torus2d_graph(5, 5);
  EXPECT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.num_edges(), b.num_edges());
}

TEST(ErdosRenyi, EdgeCountExactAndSimple) {
  const Graph g = make_erdos_renyi_graph(50, 200, 7);
  EXPECT_EQ(g.num_vertices(), 50u);
  EXPECT_EQ(g.num_edges(), 200u);
  // Simple: no self-loops -> no vertex adjacent to itself.
  for (Graph::vertex v = 0; v < 50; ++v) {
    for (Graph::vertex u : g.neighbors(v)) {
      EXPECT_NE(u, v);
    }
  }
}

TEST(ErdosRenyi, DeterministicInSeed) {
  const Graph a = make_erdos_renyi_graph(30, 60, 11);
  const Graph b = make_erdos_renyi_graph(30, 60, 11);
  for (Graph::vertex v = 0; v < 30; ++v) {
    EXPECT_EQ(a.degree(v), b.degree(v));
  }
}

TEST(ErdosRenyi, RejectsTooManyEdges) {
  EXPECT_THROW(make_erdos_renyi_graph(4, 7, 1), std::invalid_argument);
}

TEST(BarabasiAlbert, SizeAndMinDegree) {
  const Graph g = make_barabasi_albert_graph(500, 3, 13);
  EXPECT_EQ(g.num_vertices(), 500u);
  EXPECT_GE(g.min_degree(), 3u);
  EXPECT_TRUE(is_connected(g));
}

TEST(BarabasiAlbert, HubsEmerge) {
  const Graph g = make_barabasi_albert_graph(2000, 2, 17);
  // Power-law degree profile: the max degree should far exceed the mean.
  EXPECT_GT(g.max_degree(), 8 * static_cast<std::uint32_t>(
                                    g.average_degree()));
}

TEST(WattsStrogatz, BetaZeroIsLattice) {
  const Graph g = make_watts_strogatz_graph(20, 2, 0.0, 3);
  std::uint32_t d = 0;
  EXPECT_TRUE(g.is_regular(&d));
  EXPECT_EQ(d, 4u);
  EXPECT_TRUE(is_connected(g));
}

TEST(WattsStrogatz, RewiringShrinksDiameter) {
  const Graph lattice = make_watts_strogatz_graph(200, 2, 0.0, 5);
  const Graph small_world = make_watts_strogatz_graph(200, 2, 0.3, 5);
  EXPECT_LT(diameter(small_world), diameter(lattice));
}

TEST(RandomRegular, IsSimpleAndRegular) {
  const Graph g = make_random_regular_graph(200, 8, 23);
  std::uint32_t d = 0;
  ASSERT_TRUE(g.is_regular(&d));
  EXPECT_EQ(d, 8u);
  for (Graph::vertex v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_NE(nbrs[i], v) << "self-loop at " << v;
      if (i > 0) {
        EXPECT_NE(nbrs[i], nbrs[i - 1]) << "parallel edge at " << v;
      }
    }
  }
}

TEST(RandomRegular, ConnectedWithHighProbability) {
  // Random k-regular graphs with k >= 3 are connected whp.
  EXPECT_TRUE(is_connected(make_random_regular_graph(300, 4, 29)));
}

TEST(RandomRegular, RejectsOddProduct) {
  EXPECT_THROW(make_random_regular_graph(5, 3, 1), std::invalid_argument);
}

TEST(RandomRegular, DeterministicInSeed) {
  const Graph a = make_random_regular_graph(64, 4, 99);
  const Graph b = make_random_regular_graph(64, 4, 99);
  for (Graph::vertex v = 0; v < 64; ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i], nb[i]);
    }
  }
}

// FNV-1a over the CSR form: the offsets as 64-bit words, then every
// adjacency row in order.  Any change to which edges a generator draws,
// or to the order `from_edges` lays them out in, moves the hash.
std::string adjacency_hash(const Graph& g) {
  std::string bytes;
  const auto put = [&bytes](auto v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  std::uint64_t offset = 0;
  put(offset);
  for (Graph::vertex v = 0; v < g.num_vertices(); ++v) {
    offset += g.degree(v);
    put(offset);
  }
  for (Graph::vertex v = 0; v < g.num_vertices(); ++v) {
    for (Graph::vertex u : g.neighbors(v)) put(u);
  }
  return util::hex64(util::fnv1a64(bytes));
}

TEST(Generators, AdjacencyIsPinned) {
  struct Case {
    const char* name;
    std::function<Graph()> build;
    const char* hash;
  };
  const Case cases[] = {
      {"regular(200,8,23)",
       [] { return make_random_regular_graph(200, 8, 23); },
       "30f2716ced32dbe3"},
      {"regular(4096,8,99)",
       [] { return make_random_regular_graph(4096, 8, 99); },
       "c800edb4c4bbfad1"},
      {"regular(100000,8,7)",
       [] { return make_random_regular_graph(100000, 8, 7); },
       "532ab0d15704c772"},
      // d close to n: 173 of the 750 paired edges are loops or parallel
      // edges, so swap repair does most of the work.
      {"regular(50,30,11)",
       [] { return make_random_regular_graph(50, 30, 11); },
       "a7f5a65a503d20ad"},
      {"erdos_renyi(216,648,7)",
       [] { return make_erdos_renyi_graph(216, 648, 7); },
       "f4eb8ff59b9c0f20"},
      {"watts_strogatz(200,2,0.3,5)",
       [] { return make_watts_strogatz_graph(200, 2, 0.3, 5); },
       "e20f98030434a4e6"},
      {"watts_strogatz(2000,3,0.2,0x11E)",
       [] { return make_watts_strogatz_graph(2000, 3, 0.2, 0x11E); },
       "a6b48ca824ecc3e0"},
      {"barabasi_albert(500,3,13)",
       [] { return make_barabasi_albert_graph(500, 3, 13); },
       "c571f6a45ccdb31f"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(adjacency_hash(c.build()), c.hash);
  }
}

}  // namespace
}  // namespace antdense::graph
