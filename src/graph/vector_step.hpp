// Vectorized stepping for the vector walk engine (sim::VectorExec):
// advances a whole position array one round, drawing from a
// rng::WideStream.
//
// The semantics are fully specified by the sequential contract:
//
//   vector_step(topo, pos, stream)  ==  for each i in order:
//       pos[i] = topo.random_neighbor(pos[i], stream)
//
// bit-for-bit, for every topology.  Everything else in this header is
// acceleration that preserves that contract:
//   - ring / torus2d consume exactly one raw word per agent, so their
//     steps run as branchless word kernels (AVX2 when compiled in, and
//     an equivalent scalar loop the autovectorizer handles) over bulk
//     stream fills;
//   - uniform-pick families (toruskd, hypercube, complete) batch the
//     Lemire rejection via rng::uniform_below_batch (same draws, same
//     order) and then apply the pure pick_step map;
//   - variable-pick families (explicit CSR graphs) batch per-node-bound
//     Lemire the same way;
//   - everything else (implicit rgg2d/gnp/ba, whose neighbor queries
//     dominate anyway) falls back to graph::random_neighbors with the
//     stream as an ordinary BitGenerator64.
//
// Because the contract is sequential-equivalent, which lane/kernel/batch
// path executed is unobservable in the results — pinned differentially
// in tests/test_vector_walk.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "graph/ring.hpp"
#include "graph/topology.hpp"
#include "graph/torus2d.hpp"
#include "rng/random.hpp"
#include "rng/xoshiro_wide.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace antdense::graph {

namespace veckernel {

/// Ring step over a word block: pos[j] advances by the step
/// random_neighbor(pos[j], ...) would take given raw word words[j]
/// (top bit = forward).  The AVX2 path needs signed 64-bit compares, so
/// it only runs while positions and size stay below 2^62 — far beyond
/// any ring the engine instantiates, but guarded anyway.
inline void step_words(const Ring& topo, std::span<std::uint64_t> pos,
                       const std::uint64_t* words) {
  const std::uint64_t size = topo.num_nodes();
  std::size_t j = 0;
#if defined(__AVX2__)
  if (size < (std::uint64_t{1} << 62)) {
    const __m256i vzero = _mm256_setzero_si256();
    const __m256i vone = _mm256_set1_epi64x(1);
    const __m256i vsize = _mm256_set1_epi64x(static_cast<long long>(size));
    const __m256i vsize1 =
        _mm256_set1_epi64x(static_cast<long long>(size - 1));
    for (; j + 4 <= pos.size(); j += 4) {
      const __m256i u = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(pos.data() + j));
      const __m256i w = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(words + j));
      // Top bit set (word "negative") means forward: delta 1, else size-1.
      const __m256i fwd = _mm256_cmpgt_epi64(vzero, w);
      const __m256i delta = _mm256_blendv_epi8(vsize1, vone, fwd);
      __m256i v = _mm256_add_epi64(u, delta);
      const __m256i wrap = _mm256_cmpgt_epi64(v, vsize1);
      v = _mm256_sub_epi64(v, _mm256_and_si256(vsize, wrap));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(pos.data() + j), v);
    }
  }
#endif
  for (; j < pos.size(); ++j) {
    const std::uint64_t delta = (words[j] >> 63) != 0 ? 1 : size - 1;
    const std::uint64_t v = pos[j] + delta;
    pos[j] = v >= size ? v - size : v;
  }
}

/// Torus2D step over a word block: two uniform bits (word >> 62) pick
/// the direction, coordinates wrap with a conditional subtract — the
/// same branchless form as Torus2D::step_branchless, on unpacked
/// (y << 32) | x lanes.
inline void step_words(const Torus2D& topo, std::span<std::uint64_t> pos,
                       const std::uint64_t* words) {
  const std::uint64_t width = topo.width();
  const std::uint64_t height = topo.height();
  std::size_t j = 0;
#if defined(__AVX2__)
  {
    const __m256i vxmask = _mm256_set1_epi64x(0xFFFFFFFFLL);
    const __m256i vone = _mm256_set1_epi64x(1);
    const __m256i vw = _mm256_set1_epi64x(static_cast<long long>(width));
    const __m256i vw1 = _mm256_set1_epi64x(static_cast<long long>(width - 1));
    const __m256i vh = _mm256_set1_epi64x(static_cast<long long>(height));
    const __m256i vh1 =
        _mm256_set1_epi64x(static_cast<long long>(height - 1));
    const __m256i d0 = _mm256_setzero_si256();
    const __m256i d1 = vone;
    const __m256i d2 = _mm256_set1_epi64x(2);
    const __m256i d3 = _mm256_set1_epi64x(3);
    for (; j + 4 <= pos.size(); j += 4) {
      const __m256i u = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(pos.data() + j));
      const __m256i w = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(words + j));
      const __m256i dir = _mm256_srli_epi64(w, 62);
      __m256i x = _mm256_and_si256(u, vxmask);
      __m256i y = _mm256_srli_epi64(u, 32);
      // dx = dir==0 ? 1 : dir==1 ? width-1 : 0 (and dy symmetrically):
      // masked selects, exactly step_branchless's adds mod size.
      const __m256i dx = _mm256_or_si256(
          _mm256_and_si256(_mm256_cmpeq_epi64(dir, d0), vone),
          _mm256_and_si256(_mm256_cmpeq_epi64(dir, d1), vw1));
      const __m256i dy = _mm256_or_si256(
          _mm256_and_si256(_mm256_cmpeq_epi64(dir, d2), vone),
          _mm256_and_si256(_mm256_cmpeq_epi64(dir, d3), vh1));
      x = _mm256_add_epi64(x, dx);
      x = _mm256_sub_epi64(
          x, _mm256_and_si256(vw, _mm256_cmpgt_epi64(x, vw1)));
      y = _mm256_add_epi64(y, dy);
      y = _mm256_sub_epi64(
          y, _mm256_and_si256(vh, _mm256_cmpgt_epi64(y, vh1)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(pos.data() + j),
                          _mm256_or_si256(_mm256_slli_epi64(y, 32), x));
    }
  }
#endif
  for (; j < pos.size(); ++j) {
    const auto dir = static_cast<std::uint32_t>(words[j] >> 62);
    std::uint64_t x = pos[j] & 0xFFFFFFFFULL;
    std::uint64_t y = pos[j] >> 32;
    const std::uint64_t dx = dir == 0 ? 1 : (dir == 1 ? width - 1 : 0);
    const std::uint64_t dy = dir == 2 ? 1 : (dir == 3 ? height - 1 : 0);
    x += dx;
    x = x >= width ? x - width : x;
    y += dy;
    y = y >= height ? y - height : y;
    pos[j] = (y << 32) | x;
  }
}

}  // namespace veckernel

/// A topology with a one-raw-word-per-step kernel in veckernel.
template <typename T>
concept WordSteppable =
    Topology<T> && std::same_as<typename T::node_type, std::uint64_t> &&
    requires(const T& t, std::span<std::uint64_t> pos,
             const std::uint64_t* words) {
      veckernel::step_words(t, pos, words);
    };

/// Advances every position in `pos` one walk step in place, drawing from
/// the wide stream.  Sequential-equivalent (see header comment): the
/// result and the stream state match per-agent random_neighbor calls.
template <Topology T>
inline void vector_step(const T& topo,
                        std::span<typename T::node_type> pos,
                        rng::WideStream& stream) {
  using node = typename T::node_type;
  if constexpr (requires { topo.step_nodes(pos, stream); }) {
    // Type-erased handles (graph::AnyTopology) carry their own virtual
    // wide-stepping entry point: one dispatch per round.
    topo.step_nodes(pos, stream);
  } else if constexpr (WordSteppable<T>) {
    constexpr std::size_t kBlock = 256;
    std::uint64_t words[kBlock];
    for (std::size_t done = 0; done < pos.size();) {
      const std::size_t m = std::min(kBlock, pos.size() - done);
      stream.fill({words, m});
      veckernel::step_words(topo, pos.subspan(done, m), words);
      done += m;
    }
  } else if constexpr (UniformPickTopology<T>) {
    constexpr std::size_t kBlock = 256;
    std::uint64_t picks[kBlock];
    const std::uint64_t bound = topo.pick_bound();
    for (std::size_t done = 0; done < pos.size();) {
      const std::size_t m = std::min(kBlock, pos.size() - done);
      rng::uniform_below_batch(stream, bound, {picks, m});
      for (std::size_t j = 0; j < m; ++j) {
        pos[done + j] = topo.pick_step(pos[done + j], picks[j]);
      }
      done += m;
    }
  } else if constexpr (VariablePickTopology<T>) {
    constexpr std::size_t kBlock = 256;
    std::uint64_t bounds[kBlock];
    std::uint64_t picks[kBlock];
    for (std::size_t done = 0; done < pos.size();) {
      const std::size_t m = std::min(kBlock, pos.size() - done);
      for (std::size_t j = 0; j < m; ++j) {
        bounds[j] = topo.pick_bound(pos[done + j]);
      }
      rng::uniform_below_batch(
          stream, std::span<const std::uint64_t>(bounds, m), {picks, m});
      for (std::size_t j = 0; j < m; ++j) {
        pos[done + j] = topo.pick_step(pos[done + j], picks[j]);
      }
      done += m;
    }
  } else {
    // Implicit families: the per-query adjacency scan dominates, so the
    // batched sampler with the stream as a plain BitGenerator64 is already
    // the honest cost.
    graph::random_neighbors(topo, std::span<const node>(pos), pos, stream);
  }
}

}  // namespace antdense::graph
