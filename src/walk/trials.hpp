// The seeded Monte Carlo trial fan-out behind every walk estimator
// (re-collision, equalization, first-time, visit and range statistics).
//
// Trials run in blocks of `block`: block b draws from one generator
// seeded derive_seed(seed, b, tag) and runs its trials in index order;
// blocks are spread over util::parallel_for.  A trial's randomness thus
// depends on its index, the block size and the tag, never on the
// executing thread, so results are bit-identical for any thread count.
//
// Paper: Musco, Su & Lynch (PODC 2016, arXiv:1603.02981); full
// concept-to-header map in docs/ARCHITECTURE.md.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "rng/splitmix64.hpp"
#include "rng/xoshiro256pp.hpp"
#include "util/parallel.hpp"

namespace antdense::walk {

/// Runs trials [0, trials) as described above, calling
/// `trial(gen, index, state)` for each.  `make_state(b)` is called once
/// per block, on the block's worker, before its first trial; it may
/// return a fresh value (a reused scratch set) or a reference to the
/// block's own slot of a caller-owned array.
template <typename MakeState, typename Trial>
void for_each_trial(std::uint64_t trials, std::uint64_t block,
                    std::uint64_t seed, std::uint64_t tag, unsigned threads,
                    MakeState&& make_state, Trial&& trial) {
  const std::uint64_t num_blocks = (trials + block - 1) / block;
  util::parallel_for(
      num_blocks,
      [&](std::size_t b) {
        rng::Xoshiro256pp gen(rng::derive_seed(seed, b, tag));
        decltype(auto) state = make_state(b);
        const std::uint64_t begin = b * block;
        const std::uint64_t end = std::min(begin + block, trials);
        for (std::uint64_t index = begin; index < end; ++index) {
          trial(gen, index, state);
        }
      },
      threads);
}

/// One sample per trial: out[index] = sample(gen, state).
template <typename MakeState, typename Sample>
std::vector<double> sample_trials(std::uint64_t trials, std::uint64_t block,
                                  std::uint64_t seed, std::uint64_t tag,
                                  unsigned threads, MakeState&& make_state,
                                  Sample&& sample) {
  std::vector<double> out(trials, 0.0);
  for_each_trial(trials, block, seed, tag, threads, make_state,
                 [&](rng::Xoshiro256pp& gen, std::uint64_t index,
                     auto& state) { out[index] = sample(gen, state); });
  return out;
}

/// The same without per-block state: out[index] = sample(gen).
template <typename Sample>
std::vector<double> sample_trials(std::uint64_t trials, std::uint64_t block,
                                  std::uint64_t seed, std::uint64_t tag,
                                  unsigned threads, Sample&& sample) {
  struct NoState {};
  return sample_trials(
      trials, block, seed, tag, threads, [](std::size_t) { return NoState{}; },
      [&](rng::Xoshiro256pp& gen, NoState) { return sample(gen); });
}

/// An empirical probability curve over rounds 0..m_max.
struct HitCurve {
  /// probability[m] = hits[m] / trials.
  std::vector<double> probability;
  std::uint64_t trials = 0;

  /// Raw hit counts, for exact binomial confidence intervals.
  std::vector<std::uint64_t> hits;
};

/// Measures a hit curve: `trial(gen, hits)` adds one trial's hits to
/// its block's array, and the block arrays are summed at the end.
template <typename Trial>
HitCurve measure_hit_curve(std::uint32_t m_max, std::uint64_t trials,
                           std::uint64_t block, std::uint64_t seed,
                           std::uint64_t tag, unsigned threads,
                           Trial&& trial) {
  std::vector<std::vector<std::uint64_t>> block_hits(
      (trials + block - 1) / block, std::vector<std::uint64_t>(m_max + 1, 0));
  for_each_trial(
      trials, block, seed, tag, threads,
      [&](std::size_t b) -> std::vector<std::uint64_t>& {
        return block_hits[b];
      },
      [&](rng::Xoshiro256pp& gen, std::uint64_t,
          std::vector<std::uint64_t>& hits) { trial(gen, hits); });

  HitCurve out;
  out.trials = trials;
  out.hits.assign(m_max + 1, 0);
  for (const auto& hits : block_hits) {
    for (std::uint32_t m = 0; m <= m_max; ++m) {
      out.hits[m] += hits[m];
    }
  }
  out.probability.reserve(m_max + 1);
  for (std::uint32_t m = 0; m <= m_max; ++m) {
    out.probability.push_back(static_cast<double>(out.hits[m]) /
                              static_cast<double>(trials));
  }
  return out;
}

}  // namespace antdense::walk
