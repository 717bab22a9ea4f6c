// Flat set of undirected-edge keys for the random graph generators.
//
// A key packs an edge {lo, hi} with lo < hi as (lo << 32) | hi
// (graph::edge_key), so no key is ~0 and ~0 marks an empty slot.  The
// table is one power-of-two array of keys with linear probing, sized
// once for the most keys it will hold at load <= 1/2; it never rehashes
// and allocates nothing per key, unlike a node-based std::unordered_set.
// erase uses backward-shift deletion: the entries after the hole in its
// probe run move back into it, so there are no tombstones and probe runs
// stay as short as if the erased key had never been inserted.
#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "rng/splitmix64.hpp"
#include "util/check.hpp"

namespace antdense::graph {

/// The set key of the undirected edge {a, b}, a != b.
inline std::uint64_t edge_key(std::uint32_t a, std::uint32_t b) {
  const auto [lo, hi] = a < b ? std::pair{a, b} : std::pair{b, a};
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

class EdgeKeySet {
 public:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// A set that will never hold more than `max_keys` keys at once.
  explicit EdgeKeySet(std::size_t max_keys)
      : slots_(std::bit_ceil(2 * max_keys + 2), kEmpty),
        mask_(slots_.size() - 1) {}

  /// Adds `key`; false when it was already present.
  bool insert(std::uint64_t key) {
    ANTDENSE_ASSERT(key != kEmpty, "the empty-slot marker is not a key");
    std::size_t i = home(key);
    for (; slots_[i] != kEmpty; i = (i + 1) & mask_) {
      if (slots_[i] == key) return false;
    }
    ANTDENSE_ASSERT(2 * (size_ + 1) <= slots_.size(),
                    "edge key set is over its sized capacity");
    slots_[i] = key;
    ++size_;
    return true;
  }

  bool contains(std::uint64_t key) const {
    for (std::size_t i = home(key); slots_[i] != kEmpty; i = (i + 1) & mask_) {
      if (slots_[i] == key) return true;
    }
    return false;
  }

  /// Removes `key`; false when it was not present.
  bool erase(std::uint64_t key) {
    std::size_t hole = home(key);
    for (; slots_[hole] != key; hole = (hole + 1) & mask_) {
      if (slots_[hole] == kEmpty) return false;
    }
    // Walk the rest of the run.  An entry may fill the hole when its home
    // is not cyclically inside (hole, j]: its probe then passes the hole.
    for (std::size_t j = (hole + 1) & mask_; slots_[j] != kEmpty;
         j = (j + 1) & mask_) {
      if (((j - home(slots_[j])) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = kEmpty;
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  /// The slot `key`'s probe starts at (tests use it to build runs that
  /// collide and wrap past the end of the table).
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>(rng::mix64(key)) & mask_;
  }

 private:
  std::vector<std::uint64_t> slots_;
  std::size_t mask_;
  std::size_t size_ = 0;
};

}  // namespace antdense::graph
