// Wide (multi-lane) xoshiro256++ generation for the vector walk engine
// (sim::VectorExec): kWideLanes independent xoshiro256++ streams
// advanced in lockstep over structure-of-arrays state, emitting their
// outputs lane-interleaved.  This turns the per-agent "call the scalar
// generator" hot-path cost into one wide update per kWideLanes words —
// the batched recomputable-randomness idea KaGen-style generators use,
// applied to the round loop.
//
// Stream contract (pinned in tests/test_rng_wide.cpp):
//   - Lane l of XoshiroWide(root) is bit-identical to
//     Xoshiro256pp(derive_seed(root, kVectorLaneTag, l)) — lane streams
//     are ordinary scalar streams at domain-tagged derived seeds, so
//     their independence story is exactly the shard-stream one
//     (rng/stream.hpp).
//   - The emitted word sequence is lane-interleaved: word i of the
//     stream comes from lane (i mod kWideLanes), draw (i / kWideLanes).
//   - generate() and generate_portable() produce identical words.  The
//     AVX2 path (compiled when __AVX2__ is set, e.g. -mavx2 or
//     -DANTDENSE_AVX2=ON) is an implementation detail, never an
//     identity: vector-engine goldens hold on every build.
//
// WideStream adapts the block generator to the BitGenerator64 concept
// (buffered operator()) plus a bulk fill(), so scalar draw algorithms
// (Lemire rejection, bernoulli, placement) and vector step kernels can
// consume the *same* word sequence in the same order.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>

#include "rng/splitmix64.hpp"
#include "rng/xoshiro256pp.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace antdense::rng {

/// Lane count of the wide generator.  8 lanes = two 4x64-bit AVX2
/// registers per state word, and a convenient unroll for the portable
/// fallback.  Part of the stream contract: changing it re-goldens the
/// vector engine.
inline constexpr std::size_t kWideLanes = 8;

/// Domain-separation tag for vector-engine lane streams ("VECLANES"):
/// keeps lane seeds disjoint from shard streams (kShardStreamTag),
/// trial seeds, and the 0x51/0x52 driver tags.
inline constexpr std::uint64_t kVectorLaneTag = 0x5645434C414E4553ULL;

/// kWideLanes xoshiro256++ streams advanced in lockstep.  State is
/// stored lane-major per word (SoA) so both the portable loop and the
/// AVX2 path touch contiguous memory.
class XoshiroWide {
 public:
  explicit XoshiroWide(std::uint64_t root) {
    for (std::size_t l = 0; l < kWideLanes; ++l) {
      const Xoshiro256pp lane(derive_seed(root, kVectorLaneTag,
                                          static_cast<std::uint64_t>(l)));
      for (int w = 0; w < 4; ++w) {
        state_[w][l] = lane.state()[w];
      }
    }
  }

  /// Writes `count` words (a multiple of kWideLanes) lane-interleaved
  /// into `dst`, advancing every lane count / kWideLanes draws.
  /// Dispatches to AVX2 when compiled in, else the portable loop.
  void generate(std::uint64_t* dst, std::size_t count) {
#if defined(__AVX2__)
    generate_avx2(dst, count);
#else
    generate_portable(dst, count);
#endif
  }

  /// The unrolled-u64-lane fallback, compiled on every platform.  The
  /// SIMD/fallback equality contract: generate() == generate_portable()
  /// word for word from equal states (tests/test_rng_wide.cpp).
  void generate_portable(std::uint64_t* dst, std::size_t count) {
    std::uint64_t s0[kWideLanes];
    std::uint64_t s1[kWideLanes];
    std::uint64_t s2[kWideLanes];
    std::uint64_t s3[kWideLanes];
    std::memcpy(s0, state_[0].data(), sizeof(s0));
    std::memcpy(s1, state_[1].data(), sizeof(s1));
    std::memcpy(s2, state_[2].data(), sizeof(s2));
    std::memcpy(s3, state_[3].data(), sizeof(s3));
    for (std::size_t i = 0; i < count; i += kWideLanes) {
      for (std::size_t l = 0; l < kWideLanes; ++l) {
        dst[i + l] = rotl(s0[l] + s3[l], 23) + s0[l];
      }
      for (std::size_t l = 0; l < kWideLanes; ++l) {
        const std::uint64_t t = s1[l] << 17;
        s2[l] ^= s0[l];
        s3[l] ^= s1[l];
        s1[l] ^= s2[l];
        s0[l] ^= s3[l];
        s2[l] ^= t;
        s3[l] = rotl(s3[l], 45);
      }
    }
    std::memcpy(state_[0].data(), s0, sizeof(s0));
    std::memcpy(state_[1].data(), s1, sizeof(s1));
    std::memcpy(state_[2].data(), s2, sizeof(s2));
    std::memcpy(state_[3].data(), s3, sizeof(s3));
  }

#if defined(__AVX2__)
  /// AVX2 path: each xoshiro state word is two 4-lane vectors; one loop
  /// iteration emits kWideLanes words with vector add/xor/shift/rotate.
  void generate_avx2(std::uint64_t* dst, std::size_t count) {
    __m256i s0a = load(state_[0].data());
    __m256i s0b = load(state_[0].data() + 4);
    __m256i s1a = load(state_[1].data());
    __m256i s1b = load(state_[1].data() + 4);
    __m256i s2a = load(state_[2].data());
    __m256i s2b = load(state_[2].data() + 4);
    __m256i s3a = load(state_[3].data());
    __m256i s3b = load(state_[3].data() + 4);
    for (std::size_t i = 0; i < count; i += kWideLanes) {
      const __m256i ra =
          _mm256_add_epi64(vrotl<23>(_mm256_add_epi64(s0a, s3a)), s0a);
      const __m256i rb =
          _mm256_add_epi64(vrotl<23>(_mm256_add_epi64(s0b, s3b)), s0b);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), ra);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 4), rb);
      const __m256i ta = _mm256_slli_epi64(s1a, 17);
      const __m256i tb = _mm256_slli_epi64(s1b, 17);
      s2a = _mm256_xor_si256(s2a, s0a);
      s2b = _mm256_xor_si256(s2b, s0b);
      s3a = _mm256_xor_si256(s3a, s1a);
      s3b = _mm256_xor_si256(s3b, s1b);
      s1a = _mm256_xor_si256(s1a, s2a);
      s1b = _mm256_xor_si256(s1b, s2b);
      s0a = _mm256_xor_si256(s0a, s3a);
      s0b = _mm256_xor_si256(s0b, s3b);
      s2a = _mm256_xor_si256(s2a, ta);
      s2b = _mm256_xor_si256(s2b, tb);
      s3a = vrotl<45>(s3a);
      s3b = vrotl<45>(s3b);
    }
    store(state_[0].data(), s0a);
    store(state_[0].data() + 4, s0b);
    store(state_[1].data(), s1a);
    store(state_[1].data() + 4, s1b);
    store(state_[2].data(), s2a);
    store(state_[2].data() + 4, s2b);
    store(state_[3].data(), s3a);
    store(state_[3].data() + 4, s3b);
  }
#endif

  /// Lane l's state, for the lane-equality tests.
  std::array<std::uint64_t, 4> lane_state(std::size_t lane) const {
    return {state_[0][lane], state_[1][lane], state_[2][lane],
            state_[3][lane]};
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

#if defined(__AVX2__)
  template <int K>
  static __m256i vrotl(__m256i x) {
    return _mm256_or_si256(_mm256_slli_epi64(x, K),
                           _mm256_srli_epi64(x, 64 - K));
  }
  static __m256i load(const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::uint64_t* p, __m256i v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
#endif

  std::array<std::array<std::uint64_t, kWideLanes>, 4> state_;
};

/// Buffered adapter over XoshiroWide: a single flat word stream that can
/// be consumed one word at a time (operator(), satisfying BitGenerator64
/// so every scalar draw helper works unchanged) or in bulk (fill(), used
/// by the vector step kernels).  Both paths pop the same sequence in
/// order, so mixing them is well-defined — the property that lets the
/// vector engine run scalar Lemire rejection and wide step kernels off
/// one reproducible stream.
class WideStream {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kBufferWords = 256;
  static_assert(kBufferWords % kWideLanes == 0);

  explicit WideStream(std::uint64_t root) : wide_(root) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  std::uint64_t operator()() {
    if (pos_ == filled_) {
      wide_.generate(buffer_, kBufferWords);
      filled_ = kBufferWords;
      pos_ = 0;
    }
    return buffer_[pos_++];
  }

  /// Pops out.size() words in stream order: buffered words first, then
  /// whole wide blocks straight into `out`, then a fresh buffer for the
  /// tail.  Equivalent to out.size() operator() calls.
  void fill(std::span<std::uint64_t> out) {
    std::size_t done = 0;
    const std::size_t n = out.size();
    while (done < n && pos_ < filled_) {
      out[done++] = buffer_[pos_++];
    }
    const std::size_t direct = ((n - done) / kWideLanes) * kWideLanes;
    if (direct > 0) {
      wide_.generate(out.data() + done, direct);
      done += direct;
    }
    while (done < n) {
      if (pos_ == filled_) {
        wide_.generate(buffer_, kBufferWords);
        filled_ = kBufferWords;
        pos_ = 0;
      }
      out[done++] = buffer_[pos_++];
    }
  }

 private:
  XoshiroWide wide_;
  std::uint64_t buffer_[kBufferWords];
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;
};

}  // namespace antdense::rng
