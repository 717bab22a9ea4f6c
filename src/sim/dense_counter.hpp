// Direct-addressed per-round occupancy counter for the vector and
// sharded engines' hot path.  CollisionCounter (collision_counter.hpp)
// pays a mix + probe per touch; on substrates whose packed keys are
// dense in [0, num_nodes) — every family guarantees this — a flat
// epoch-stamped array answers add/occupancy with a single indexed load,
// which is what the < 10 ns/agent-round budget demands.
//
// Each slot packs (epoch << 32) | count into one u64, so "stale slot
// reads as empty" costs a shift-compare instead of a second field load,
// and begin_round stays O(1) like the hash counter.  add_concurrent
// updates the same slot atomically (fetch_add on a current slot, a CAS
// to claim a stale one), so shards can count one round at once; counts
// are pure sums, exact for any interleaving.  The verbs are
// CollisionCounter's — begin_round, add, add_concurrent, occupancy —
// and so are the counts, for any key sequence (tests/test_vector_walk.cpp
// pins it), so which counter a walk used is unobservable in its
// results: the vector and sharded engines pick per-topology by node
// count (use_dense_counter) and fall back to the hash CollisionCounter
// for huge implicit substrates where O(num_nodes) memory is the wrong
// deal.
//
// Phase discipline (the engines' barriers enforce it): begin_round and
// add run alone; add_concurrent from any number of threads at once;
// occupancy from any number of threads once no writer is left.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace antdense::sim {

class DenseCollisionCounter {
 public:
  /// `num_keys`: keys must lie in [0, num_keys).  Allocates one u64 per
  /// key up front; see use_dense_counter for the size cutoff policy.
  explicit DenseCollisionCounter(std::uint64_t num_keys)
      : slots_(static_cast<std::size_t>(num_keys), 0) {
    ANTDENSE_CHECK(num_keys >= 1, "dense counter needs >= 1 key");
  }

  /// Starts a new round; all previous counts become invisible (O(1)).
  void begin_round() {
    ++epoch_;
    if (epoch_ == 0) {
      // Epoch counter wrapped (after 2^32 rounds): hard-reset stamps so
      // stale slots cannot alias the new epoch 1.
      std::fill(slots_.begin(), slots_.end(), std::uint64_t{0});
      epoch_ = 1;
    }
  }

  /// Records one agent at `key`; returns the occupancy of `key`
  /// *after* this insertion (1 for the first agent on the node).
  std::uint32_t add(std::uint64_t key) {
    std::uint64_t& slot = slots_[static_cast<std::size_t>(key)];
    const std::uint64_t tagged = static_cast<std::uint64_t>(epoch_) << 32;
    const std::uint64_t fresh =
        (slot >> 32) == epoch_ ? slot + 1 : tagged + 1;
    slot = fresh;
    return static_cast<std::uint32_t>(fresh);
  }

  /// Thread-safe add: any number of threads may record agents in the
  /// same round, none of them alongside add() or occupancy().
  void add_concurrent(std::uint64_t key) {
    std::atomic_ref<std::uint64_t> slot(
        slots_[static_cast<std::size_t>(key)]);
    const std::uint64_t tagged = static_cast<std::uint64_t>(epoch_) << 32;
    std::uint64_t seen = slot.load(std::memory_order_relaxed);
    while ((seen >> 32) != epoch_) {
      // Stale slot: claim it for this round (a lost race reloads `seen`
      // and retries, or falls through once the winner has stamped it).
      if (slot.compare_exchange_weak(seen, tagged + 1,
                                     std::memory_order_relaxed)) {
        return;
      }
    }
    slot.fetch_add(1, std::memory_order_relaxed);
  }

  /// Occupancy of `key` in the current round (0 if no agent there).
  std::uint32_t occupancy(std::uint64_t key) const {
    const std::uint64_t slot = slots_[static_cast<std::size_t>(key)];
    return (slot >> 32) == epoch_ ? static_cast<std::uint32_t>(slot) : 0;
  }

  /// Prefetch hint for the batched add/read loops.
  void prefetch(std::uint64_t key) const {
    __builtin_prefetch(&slots_[static_cast<std::size_t>(key)]);
  }

  std::size_t capacity() const { return slots_.size(); }

 private:
  std::vector<std::uint64_t> slots_;
  std::uint32_t epoch_ = 0;
};

/// The vector and sharded engines' counter choice: direct addressing pays
/// off while the slot array stays cache-friendly and the O(num_nodes)
/// allocation is small next to the walk itself; beyond the cap (128 MiB
/// of slots) the hash counter's O(agents) memory wins.
inline bool use_dense_counter(std::uint64_t num_nodes) {
  return num_nodes >= 1 && num_nodes <= (std::uint64_t{1} << 24);
}

}  // namespace antdense::sim
