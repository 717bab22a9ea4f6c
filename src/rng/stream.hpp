// Deterministic per-shard RNG stream derivation for the sharded walk
// engine (sim::ShardExec).
//
// derive_stream(root, shard) maps a walk's stream seed plus a shard
// index to the seed of that shard's private generator.  It is the
// engine-level analogue of the campaign layer's derive_seed(campaign
// seed, identity hash): randomness is keyed by *which* unit of work is
// running (the shard), never by which thread happens to run it, so the
// merged output is bit-identical for any worker count.
//
// Two properties are part of the contract and pinned by
// tests/test_rng_stream.cpp:
//   1. Stability: the mapping is pure 64-bit integer arithmetic
//      (SplitMix64 mixing), so it yields the same values on every
//      platform, compiler, and word size.  Golden values are hardcoded
//      in the tests; changing this function re-goldens every sharded
//      walk.
//   2. Independence: a domain-separation tag keeps shard streams
//      well-separated from every other derive_seed user (trial seeds,
//      the 0x51/0x52 driver tags, campaign experiment seeds), and the
//      SplitMix64 avalanche keeps adjacent shard indices statistically
//      independent (moment checks in the tests).
#pragma once

#include <cstdint>

#include "rng/splitmix64.hpp"

namespace antdense::rng {

/// Domain-separation tag for shard streams ("SHRDSTRM" in ASCII): no
/// other derive_seed call site uses this index, so shard streams can
/// never collide with trial or driver streams derived from the same
/// root.
inline constexpr std::uint64_t kShardStreamTag = 0x534852445354524DULL;

/// Seed for shard `shard`'s private generator within the walk stream
/// rooted at `root`.  Deterministic, platform-stable, and independent
/// across shards.
constexpr std::uint64_t derive_stream(std::uint64_t root,
                                      std::uint64_t shard) {
  return derive_seed(root, kShardStreamTag, shard);
}

/// Domain-separation tag for the dynamics mutation stream ("DYNMUTAT"
/// in ASCII).  World mutation (edge churn, node failure, agent
/// birth/death, sensing drift — sim/dynamics.hpp) draws from a stream
/// derived with this tag, never from the walk stream itself, so a
/// scenario with dynamics disabled consumes exactly the historical walk
/// stream and stays bit-identical to its static goldens.
inline constexpr std::uint64_t kMutationStreamTag = 0x44594E4D55544154ULL;

/// Seed for the serial mutation-phase generator of a walk whose engine
/// stream is rooted at `root`, for the dynamics model seeded with
/// `model_seed`.  Deterministic, platform-stable, and independent of
/// every walk/shard/trial stream derived from the same root.
constexpr std::uint64_t derive_mutation_stream(std::uint64_t root,
                                               std::uint64_t model_seed) {
  return derive_seed(root, kMutationStreamTag, model_seed);
}

}  // namespace antdense::rng
