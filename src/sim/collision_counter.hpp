// Per-round node-occupancy counter: the engine's implementation of the
// paper's count(position) primitive wherever the direct-addressed
// DenseCollisionCounter (sim/dense_counter.hpp) does not apply — the
// single engine, graphs beyond use_dense_counter's cap, and
// PropertyObserver's property counter.
//
// Open-addressing hash table keyed by the topology's packed node key.
// Instead of clearing between rounds, each slot carries the epoch (round
// number) it was written in; stale slots read as empty.  Capacity is
// sized once for the agent population (occupancy per round can never
// exceed the number of agents), so the table never rehashes and the hot
// path is one mix + short linear probe.
//
// add_concurrent lets shards count one round at once through
// std::atomic_ref on the slot's plain fields: a stale slot is claimed by
// a CAS of its epoch to `epoch | kBusyBit`, the key is written, and the
// claim is published with a release store of the epoch; inserters that
// find the key current fetch_add its count.  Which physical slot a key
// lands in can vary with the interleaving, but linear probing finds it
// regardless and counts are pure sums, so occupancy is exact and
// deterministic for any thread count.
//
// Phase discipline (the engines' barriers enforce it): begin_round and
// add run alone; add_concurrent from any number of threads at once;
// occupancy from any number of threads once no writer is left.
#pragma once

#include <cstdint>
#include <vector>

#include "rng/splitmix64.hpp"
#include "util/check.hpp"

namespace antdense::sim {

class CollisionCounter {
 public:
  /// `max_occupancy`: the most distinct keys that will be added in any
  /// single round (the number of agents).  The table allocates 4x this
  /// rounded to a power of two, keeping load factor <= 1/4.
  explicit CollisionCounter(std::size_t max_occupancy);

  /// Starts a new round; all previous counts become invisible (O(1)).
  void begin_round();

  /// Records one agent at `key`; returns the occupancy of `key`
  /// *after* this insertion (1 for the first agent on the node).
  std::uint32_t add(std::uint64_t key);

  /// Thread-safe add: any number of threads may record agents in the
  /// same round, none of them alongside add() or occupancy().
  void add_concurrent(std::uint64_t key);

  /// Occupancy of `key` in the current round (0 if no agent there).
  std::uint32_t occupancy(std::uint64_t key) const;

  std::size_t capacity() const { return slots_.size(); }

 private:
  /// Set in a slot's epoch only between add_concurrent's claim and its
  /// publish; epochs wrap below it.
  static constexpr std::uint32_t kBusyBit = 0x80000000u;

  struct Slot {
    std::uint64_t key = 0;  // add_concurrent: guarded by epoch's release
    std::uint32_t epoch = 0;
    std::uint32_t count = 0;
  };

  static std::uint64_t mix(std::uint64_t key) { return rng::mix64(key); }

  std::vector<Slot> slots_;
  std::uint64_t mask_;
  std::uint32_t epoch_ = 0;
  std::size_t max_occupancy_;
  std::size_t inserted_this_round_ = 0;
};

}  // namespace antdense::sim
