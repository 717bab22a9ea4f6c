// Tests for rng::derive_stream — the sharded engine's per-shard seed
// splitter.  Two properties are contractual (sim::ShardExec
// reproducibility rests on them): the mapping is platform-stable (pure
// 64-bit arithmetic, pinned here against golden values computed once),
// and distinct shards yield statistically independent generator
// streams (moment checks in the style of test_rng's binomial tests).
#include "rng/stream.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "rng/random.hpp"
#include "rng/xoshiro256pp.hpp"
#include "stats/accumulator.hpp"

namespace antdense::rng {
namespace {

TEST(DeriveStream, PinnedGoldenValues) {
  // Golden values for the (root, shard) -> seed mapping.  These must
  // hold on every platform, compiler, and word size: a change here
  // re-goldens every sharded walk ever recorded, so treat a failure as
  // a contract break, not a test to update.
  EXPECT_EQ(derive_stream(0, 0), 0x58c5cc4ddbe2416cULL);
  EXPECT_EQ(derive_stream(0, 1), 0x0504682558d915b6ULL);
  EXPECT_EQ(derive_stream(0, 2), 0x06cd71e32ecd6032ULL);
  EXPECT_EQ(derive_stream(42, 0), 0x22708817e02279aeULL);
  EXPECT_EQ(derive_stream(42, 7), 0xc0783437e804b265ULL);
  EXPECT_EQ(derive_stream(0xDEADBEEFULL, 3), 0xb481c59ba200f92fULL);
}

TEST(DeriveStream, IsConstexpr) {
  static_assert(derive_stream(1, 2) != derive_stream(2, 1),
                "stream derivation must separate root from shard index");
  static_assert(derive_stream(5, 0) == derive_stream(5, 0));
}

TEST(DeriveStream, DistinctAcrossShardsAndRoots) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t root : {0ull, 1ull, 42ull, 0xFFFFFFFFFFFFull}) {
    for (std::uint64_t shard = 0; shard < 64; ++shard) {
      seen.insert(derive_stream(root, shard));
    }
  }
  EXPECT_EQ(seen.size(), 4u * 64u);
}

TEST(DeriveStream, SeparatedFromOtherDeriveSeedUsers) {
  // The domain tag keeps shard streams out of the plain derive_seed
  // index space used for trial seeds and driver tags: shard s's stream
  // must never equal derive_seed(root, s) for small s.
  for (std::uint64_t shard = 0; shard < 256; ++shard) {
    EXPECT_NE(derive_stream(99, shard), derive_seed(99, shard));
  }
}

TEST(DeriveStream, StreamMomentsAreUniform) {
  // Every shard stream must look like a fair uniform generator on its
  // own: mean of uniform_unit near 1/2, variance near 1/12.
  constexpr int kDraws = 20000;
  for (std::uint64_t shard : {0ull, 1ull, 7ull, 63ull}) {
    Xoshiro256pp gen(derive_stream(2026, shard));
    stats::Accumulator acc;
    for (int i = 0; i < kDraws; ++i) {
      acc.add(uniform_unit(gen));
    }
    EXPECT_NEAR(acc.mean(), 0.5, 4.0 * acc.standard_error()) << shard;
    EXPECT_NEAR(acc.sample_variance(), 1.0 / 12.0, 0.005) << shard;
  }
}

TEST(DeriveStream, AdjacentStreamsAreUncorrelated) {
  // Cross-shard independence: the sample correlation between adjacent
  // shards' uniform draws is ~Normal(0, 1/sqrt(n)); 4 sigma bounds it.
  constexpr int kDraws = 20000;
  for (std::uint64_t shard = 0; shard < 4; ++shard) {
    Xoshiro256pp a(derive_stream(7, shard));
    Xoshiro256pp b(derive_stream(7, shard + 1));
    double sum_ab = 0.0;
    stats::Accumulator acc_a;
    stats::Accumulator acc_b;
    for (int i = 0; i < kDraws; ++i) {
      const double xa = uniform_unit(a);
      const double xb = uniform_unit(b);
      sum_ab += xa * xb;
      acc_a.add(xa);
      acc_b.add(xb);
    }
    const double cov = sum_ab / kDraws - acc_a.mean() * acc_b.mean();
    const double corr =
        cov / std::sqrt(acc_a.sample_variance() * acc_b.sample_variance());
    EXPECT_LT(std::fabs(corr), 4.0 / std::sqrt(double(kDraws))) << shard;
  }
}

TEST(DeriveStream, BinomialCountsAcrossShardsMatchTheory) {
  // Treat "draw < p" per shard stream as one Bernoulli trial and sum
  // over shards: the total is Binomial(shards * reps, p).  This is the
  // cross-stream analogue of test_rng's binomial moment test — bias or
  // lockstep between shard streams would shift the mean or variance.
  constexpr double kP = 0.3;
  constexpr int kShards = 32;
  constexpr int kReps = 600;
  std::uint64_t successes = 0;
  for (int shard = 0; shard < kShards; ++shard) {
    Xoshiro256pp gen(derive_stream(1234, shard));
    for (int r = 0; r < kReps; ++r) {
      successes += bernoulli(gen, kP) ? 1 : 0;
    }
  }
  const double n = double(kShards) * kReps;
  const double mean = n * kP;
  const double sd = std::sqrt(n * kP * (1.0 - kP));
  EXPECT_NEAR(double(successes), mean, 4.0 * sd);
}

}  // namespace
}  // namespace antdense::rng
