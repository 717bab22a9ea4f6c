#include "graph/edge_key_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "rng/random.hpp"
#include "rng/xoshiro256pp.hpp"

namespace antdense::graph {
namespace {

// Every key of `keys` is found, and no other key of `universe` is.
void expect_same(const EdgeKeySet& set,
                 const std::unordered_set<std::uint64_t>& keys,
                 const std::vector<std::uint64_t>& universe) {
  ASSERT_EQ(set.size(), keys.size());
  for (std::uint64_t key : universe) {
    ASSERT_EQ(set.contains(key), keys.count(key) > 0) << "key " << key;
  }
}

TEST(EdgeKeySet, EdgeKeyIsOrderFreeAndNeverEmpty) {
  EXPECT_EQ(edge_key(3, 9), edge_key(9, 3));
  EXPECT_EQ(edge_key(3, 9), (std::uint64_t{3} << 32) | 9);
  EXPECT_NE(edge_key(0xFFFFFFFEu, 0xFFFFFFFFu), EdgeKeySet::kEmpty);
}

TEST(EdgeKeySet, SizedOnceAtLoadHalf) {
  EXPECT_EQ(EdgeKeySet(0).capacity(), 2u);
  EXPECT_EQ(EdgeKeySet(7).capacity(), 16u);
  EXPECT_EQ(EdgeKeySet(8).capacity(), 32u);
  EdgeKeySet set(3);
  for (std::uint32_t v = 1; v <= 4; ++v) {
    EXPECT_TRUE(set.insert(edge_key(0, v)));
  }
  // 4 keys fill half of the 8 slots; a fifth would pass load 1/2.
  EXPECT_THROW(set.insert(edge_key(0, 5)), std::logic_error);
  EXPECT_FALSE(set.insert(edge_key(0, 4)));
}

// Seeded random mixes of insert / contains / erase against
// std::unordered_set.  The vertex range keeps the key universe small, so
// most operations hit keys already present and the table runs near its
// sized load, where probe runs are long and wrap past the end.
TEST(EdgeKeySet, MatchesUnorderedSetOnRandomMixes) {
  for (const std::uint32_t vertices : {6u, 12u, 40u}) {
    std::vector<std::uint64_t> universe;
    for (std::uint32_t a = 0; a < vertices; ++a) {
      for (std::uint32_t b = a + 1; b < vertices; ++b) {
        universe.push_back(edge_key(a, b));
      }
    }
    for (const std::uint64_t seed : {1ull, 7ull, 0x5E7ull}) {
      SCOPED_TRACE(testing::Message() << "vertices " << vertices << " seed "
                                      << seed);
      rng::Xoshiro256pp gen(seed);
      EdgeKeySet set(universe.size());
      std::unordered_set<std::uint64_t> reference;
      for (int op = 0; op < 20000; ++op) {
        const auto a = static_cast<std::uint32_t>(
            rng::uniform_below(gen, vertices));
        const auto b = static_cast<std::uint32_t>(
            rng::uniform_below(gen, vertices));
        if (a == b) continue;
        const std::uint64_t key = edge_key(a, b);
        switch (rng::uniform_below(gen, 3)) {
          case 0:
            ASSERT_EQ(set.insert(key), reference.insert(key).second);
            break;
          case 1:
            ASSERT_EQ(set.contains(key), reference.count(key) > 0);
            break;
          default:
            ASSERT_EQ(set.erase(key), reference.erase(key) > 0);
            break;
        }
        if (op % 97 == 0) expect_same(set, reference, universe);
      }
      expect_same(set, reference, universe);
    }
  }
}

// Keys whose probes all start in the last two slots form one run that
// wraps to the front of the table.  Erasing them in every order makes
// backward-shift deletion move entries across the wrap, and the set must
// still find exactly the survivors after each erase.
TEST(EdgeKeySet, BackwardShiftAcrossTheWrap) {
  EdgeKeySet probe(7);
  const std::size_t cap = probe.capacity();
  std::vector<std::uint64_t> chain;
  std::vector<std::uint64_t> universe;
  for (std::uint32_t hi = 1; chain.size() < 6; ++hi) {
    const std::uint64_t key = edge_key(0, hi);
    universe.push_back(key);
    const std::size_t home = probe.home(key);
    // Three keys at each of the last two slots.
    const auto at = [&](std::size_t slot) {
      return std::count_if(chain.begin(), chain.end(), [&](std::uint64_t k) {
        return probe.home(k) == slot;
      });
    };
    if ((home == cap - 2 || home == cap - 1) && at(home) < 3) {
      chain.push_back(key);
    }
  }
  // One key that lives at the front on its own, inside the wrapped run.
  for (std::uint32_t hi = 1;; ++hi) {
    const std::uint64_t key = edge_key(1, hi + 1);
    if (probe.home(key) == 1) {
      chain.push_back(key);
      universe.push_back(key);
      break;
    }
  }

  std::vector<std::size_t> order(chain.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  int permutations = 0;
  do {
    EdgeKeySet set(7);
    ASSERT_EQ(set.capacity(), cap);
    std::unordered_set<std::uint64_t> reference;
    for (std::uint64_t key : chain) {
      ASSERT_TRUE(set.insert(key));
      reference.insert(key);
    }
    expect_same(set, reference, universe);
    for (std::size_t i : order) {
      ASSERT_TRUE(set.erase(chain[i]));
      ASSERT_FALSE(set.erase(chain[i]));
      reference.erase(chain[i]);
      expect_same(set, reference, universe);
    }
    // Nothing left behind: the emptied table takes the run again.
    for (std::uint64_t key : chain) ASSERT_TRUE(set.insert(key));
    ++permutations;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(permutations, 5040);
}

}  // namespace
}  // namespace antdense::graph
