// The synchronous round loop (Musco, Su & Lynch, PODC 2016,
// arXiv:1603.02981, Algorithm 1): every agent steps, counts the agents
// on its node, and reports c/t.  The walk workloads — density estimation
// on static and dynamic worlds, two-class property counting, trajectory
// recording, local-density profiling, sequential quorum detection — run
// through the ONE loop in run_walk.  Two drivers keep private round
// loops, because run_walk cannot continue their pinned streams:
//   - swarm::run_dispersion draws the clustered placement, every
//     epoch's single and double steps and each epoch's spread sample
//     from one generator (derive_seed(seed, 0xD15C)); no per-call lane
//     stream of run_walk can continue it across epochs.
//   - core::run_independent_sampling's walkers take a deterministic +y
//     step and draw nothing after placement; saying that to run_walk
//     takes a step hook or a fake topology, either more code than its
//     15-line loop.
//
// One round, written once:
//   0. mutate: when a dynamics model is attached (sim/dynamics.hpp) and
//      r >= 2, the world mutates serially on its own domain-tagged RNG
//      stream — the walk streams never change, so static configs stay
//      bit-identical to their goldens;
//   1. begin_round hooks (serial setup, e.g. clearing aux counters);
//   2. step: every agent moves — the batched topology API when the walk
//      is not lazy, the per-agent Bernoulli/step loop when it is — then
//      the model rewrites moves the mutated world blocks;
//   3. key + count: keys are recomputed and the occupancy counter filled
//      (dead agents masked out);
//   4. fill hooks (auxiliary occupancy counting);
//   5. after_round hooks (per-agent reads of the round's keys, the
//      occupancy counter, the positions if asked for, and the view's
//      generator for noise draws);
//   6. end_round hooks (serial cross-agent snapshots);
//   7. done hooks: the walk ends after this round if any observer says
//      so (an early-stopping detector); packs without one never check.
//
// What differs between engines is a compile-time execution policy —
// the `exec` argument — and each engine name is one fixed policy:
//   - SingleExec (engine=single): one Xoshiro256pp stream over the whole
//     population, hash CollisionCounter.  The historical stream;
//     tests/test_walk_engine.cpp pins it against the frozen pre-engine
//     loops in sim/legacy_reference.hpp.
//   - ShardExec (engine=sharded): contiguous ShardPlan ranges, each on
//     its own rng::derive_stream(stream_seed, shard), counted through
//     add_concurrent into the direct-addressed DenseCollisionCounter
//     when use_dense_counter allows it and the hash CollisionCounter
//     otherwise (counts are identical; both counters speak begin_round /
//     add / add_concurrent / occupancy, and a single-threaded run takes
//     the plain add).
//     Steps 2-4 run as one parallel phase over the shards and step 5 as
//     a second, so a round crosses two WorkerPool barriers, which spin
//     briefly before they park.  Randomness is keyed by shard, never by
//     thread: output is a pure function of (stream_seed, cfg,
//     shard_size) for ANY thread count (tests/test_sharded_walk.cpp).
//   - VectorExec (engine=vector): one rng::WideStream (kWideLanes
//     xoshiro lanes, lane-interleaved) driving graph::vector_step's
//     branchless kernels, the DenseCollisionCounter under the same
//     use_dense_counter rule (hash counter otherwise), and observer
//     noise from a scalar stream at kVectorObserverTag so movement and
//     noise stay separated.
// Each policy's stream layout is an identity choice: the three engines
// define three different (equally valid) samples, pinned by their own
// goldens.
//
// Observers are a compile-time pack, so the loop inlines their hooks
// with zero dispatch cost.  Hooks see a *view* naming an agent range
// [begin_agent, end_agent): the whole population under single and
// vector, one shard at a time (concurrently) under sharded.  Observer
// state indexed by agent id is therefore written in disjoint slices,
// which is what makes the sharded merge free and thread-count-invariant.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/topology.hpp"
#include "graph/vector_step.hpp"
#include "obs/telemetry.hpp"
#include "rng/random.hpp"
#include "rng/splitmix64.hpp"
#include "rng/stream.hpp"
#include "rng/xoshiro256pp.hpp"
#include "rng/xoshiro_wide.hpp"
#include "sim/collision_counter.hpp"
#include "sim/dense_counter.hpp"
#include "sim/dynamics.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/worker_pool.hpp"

namespace antdense::sim {

/// Movement-only configuration of the round loop.  What happens with the
/// occupancy information (noise, snapshots, ...) belongs to observers.
struct WalkConfig {
  std::uint32_t num_agents = 0;
  std::uint32_t rounds = 0;
  double lazy_probability = 0.0;
  /// Optional world-mutation model (sim/dynamics.hpp), not owned; null
  /// means the historical static walk, bit for bit.  Requires a
  /// uint64-node topology (the scenario layer's AnyTopology); every
  /// engine supports it.
  WorldDynamics* dynamics = nullptr;

  void validate() const;
};

/// Deterministic decomposition of a population into contiguous shards.
/// The shard grain is part of the output contract (it decides which
/// stream steps which agent), so it is a parameter with a fixed default,
/// never a function of the machine.
struct ShardPlan {
  /// Default agents-per-shard: small enough that a 100k-agent walk
  /// exposes ~25-way parallelism, large enough that per-shard phase
  /// overhead is noise.
  static constexpr std::uint32_t kDefaultShardSize = 4096;

  std::uint32_t num_agents = 0;
  std::uint32_t shard_size = kDefaultShardSize;

  static ShardPlan make(std::uint32_t num_agents,
                        std::uint32_t shard_size = kDefaultShardSize);

  std::uint32_t num_shards() const {
    return (num_agents + shard_size - 1) / shard_size;
  }
  std::uint32_t begin(std::uint32_t shard) const {
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(
        num_agents, static_cast<std::uint64_t>(shard) * shard_size));
  }
  std::uint32_t end(std::uint32_t shard) const {
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(
        num_agents, (static_cast<std::uint64_t>(shard) + 1) * shard_size));
  }
};

/// engine=single: one scalar stream, hash counter.
struct SingleExec {};

/// engine=sharded.  `threads` never changes results; `shard_size` does
/// (it reassigns agents to streams).
struct ShardExec {
  unsigned threads = 0;  // worker threads; 0 = one per core
  std::uint32_t shard_size = ShardPlan::kDefaultShardSize;
};

/// engine=vector: one wide stream, dense counter within its cap.
struct VectorExec {};

/// The three execution policies run_walk accepts.
template <typename E>
concept ExecPolicy = std::same_as<E, SingleExec> ||
                     std::same_as<E, ShardExec> ||
                     std::same_as<E, VectorExec>;

/// Domain-separation tag ("VECOBSRV") for the vector engine's observer
/// noise generator, disjoint from the movement lanes (kVectorLaneTag).
inline constexpr std::uint64_t kVectorObserverTag = 0x5645434F42535256ULL;

/// What an observer sees at the end of each round.  Everything is a view
/// into engine state; observers must not hold onto it past the call.
/// `gen` is the generator whose draws are reproducible for this view's
/// agent range — the single stream, the shard's private stream, or the
/// vector engine's observer stream.  Observers that draw from it (noise
/// models) become part of the reproducible stream, in pack order.
/// Hooks must only write observer state belonging to agents in
/// [begin_agent, end_agent); the sharded engine runs hooks for distinct
/// ranges concurrently.
template <typename Counter>
struct BasicRoundView {
  std::uint32_t round = 0;        // 1-based
  std::uint32_t begin_agent = 0;  // this view's agent range
  std::uint32_t end_agent = 0;
  std::uint32_t num_agents = 0;         // whole population
  std::span<const std::uint64_t> keys;  // keys[i] = key of agent i's node
  const Counter& counter;               // occupancy of the current round
  rng::Xoshiro256pp& gen;
  /// True when fill hooks run concurrently (sharded, threads > 1):
  /// auxiliary counters must use their thread-safe insertion path.
  bool concurrent_fill = false;
};

/// The single engine's view (also vector's beyond the dense-counter cap).
using RoundView = BasicRoundView<CollisionCounter>;

/// An observer is any type with at least one per-round hook:
/// `after_round(view)`, `after_round(view, positions)` (node handles,
/// not keys), or `end_round(round)`.  Optional hooks: `begin_round
/// (round)` (serial, before the round's steps), `fill(view)`
/// (auxiliary occupancy counting between counting and after_round) and
/// `bool done() const` (read after the end_round hooks; the walk ends
/// after the first round in which any observer's done() is true).
///
/// run_walk checks the concept against the *actual* view type the
/// policy passes: the notify helpers skip hooks a view type cannot
/// call, so without this check an observer written against the wrong
/// view would compile and silently record nothing.
template <typename O, typename Node, typename View>
concept WalkObserverForView =
    requires(O& o, const View& v, std::span<const Node> pos,
             std::uint32_t round) {
      requires requires { o.after_round(v); } ||
                   requires { o.after_round(v, pos); } ||
                   requires { o.end_round(round); };
    };

/// Per-agent cumulative collision counts — Algorithm 1's `c`, with the
/// Section 6.1 sensing perturbations (detection misses, spurious
/// detections) applied at observation time.
///
/// On a dynamic world (a non-null WorldDynamics model, sim/dynamics.hpp)
/// it also keeps Algorithm 1's `t` per slot: dead slots observe nothing,
/// a slot whose birth round changed is a new agent and restarts from
/// zero, and raw partner counts pass through the model's observation
/// transform before the spec-level sensing noise.  Static walks keep no
/// such bookkeeping: every slot observes every round.
class CollisionObserver {
 public:
  struct Noise {
    double detection_miss = 0.0;  // each partner goes undetected w.p. p
    double spurious = 0.0;        // phantom collision recorded w.p. p
    /// The whole observation is lost w.p. p (the round still counts
    /// toward the estimate's divisor).  Drawn first, before the miss
    /// and spurious draws, so dropout = 0 leaves the historical streams
    /// untouched.
    double dropout = 0.0;

    bool any() const {
      return detection_miss > 0.0 || spurious > 0.0 || dropout > 0.0;
    }
  };

  explicit CollisionObserver(std::uint32_t num_agents)
      : CollisionObserver(num_agents, Noise{}) {}
  /// `model` (not owned, may be null) must be the one the walk mutates.
  CollisionObserver(std::uint32_t num_agents, Noise noise,
                    const WorldDynamics* model = nullptr);

  template <typename View>
  void after_round(const View& v) {
    ANTDENSE_ASSERT(v.num_agents == counts_.size(),
                    "observer sized for a different agent count");
    if (!noise_.any() && model_ == nullptr) {
      if (collisions_tap_ == nullptr) {
        for (std::uint32_t i = v.begin_agent; i < v.end_agent; ++i) {
          counts_[i] += v.counter.occupancy(v.keys[i]) - 1;
        }
      } else {
        // Telemetry-enabled copy of the loop: the disabled path above
        // carries no accumulator, keeping it identical to the frozen
        // hot loop the bench overhead gate compares against.
        std::uint64_t observed = 0;
        for (std::uint32_t i = v.begin_agent; i < v.end_agent; ++i) {
          const std::uint64_t others = v.counter.occupancy(v.keys[i]) - 1;
          counts_[i] += others;
          observed += others;
        }
        collisions_tap_->add(observed);
      }
      return;
    }
    // The one loop for sensing noise and/or a dynamics model.  Per
    // agent: birth reset, alive skip, rounds observed, dropout, the
    // model's observe transform, miss, spurious.  Without a model the
    // model steps are skipped, so static noisy streams are unchanged.
    const WorldDynamics* const model = model_;
    const bool transforms =
        model != nullptr && model->transforms_observations();
    std::uint64_t observed = 0;
    for (std::uint32_t i = v.begin_agent; i < v.end_agent; ++i) {
      if (model != nullptr) {
        const std::uint32_t born = model->birth_round(i);
        if (born != seen_birth_[i]) {
          seen_birth_[i] = born;
          counts_[i] = 0;
          observed_rounds_[i] = 0;
        }
        if (!model->alive(i)) {
          continue;
        }
        ++observed_rounds_[i];
      }
      if (noise_.dropout > 0.0 && rng::bernoulli(v.gen, noise_.dropout)) {
        continue;  // reading lost entirely; the round still elapsed
      }
      std::uint64_t others = v.counter.occupancy(v.keys[i]) - 1;
      if (transforms) {
        others = model->observe(i, others, v.gen);
      }
      if (noise_.detection_miss > 0.0) {
        // Each partner is detected independently w.p. 1-p: one binomial
        // draw instead of the legacy per-partner Bernoulli loop.
        others = rng::binomial(v.gen, others, 1.0 - noise_.detection_miss);
      }
      if (noise_.spurious > 0.0 && rng::bernoulli(v.gen, noise_.spurious)) {
        ++others;
      }
      counts_[i] += others;
      observed += others;
    }
    if (collisions_tap_ != nullptr) {
      collisions_tap_->add(observed);
    }
  }

  const std::vector<std::uint64_t>& counts() const { return counts_; }
  std::vector<std::uint64_t> take_counts() { return std::move(counts_); }
  /// Rounds observed by each slot's current incarnation, 0 for a slot
  /// not alive at the end of the walk.  Empty without a model, where
  /// every slot observed every round.
  std::vector<std::uint32_t> take_observed_rounds();

 private:
  Noise noise_;
  const WorldDynamics* model_;
  std::vector<std::uint64_t> counts_;
  /// Dynamic worlds only (empty otherwise): Algorithm 1's t per slot and
  /// the birth round of the incarnation it counts.
  std::vector<std::uint32_t> observed_rounds_;
  std::vector<std::uint32_t> seen_birth_;
  /// Resolved from ambient telemetry at construction; null when
  /// telemetry is disabled (see walk_engine.cpp).
  obs::Counter* collisions_tap_ = nullptr;
};

/// Two-class counting for Section 5.2: total encounters and encounters
/// with property-P agents, from the same walk.  The property-occupancy
/// counter is filled in the engine's fill phase (concurrently under the
/// sharded engine) and read per agent in after_round.
class PropertyObserver {
 public:
  explicit PropertyObserver(std::vector<bool> has_property);

  void begin_round(std::uint32_t round);

  template <typename View>
  void fill(const View& v) {
    ANTDENSE_ASSERT(v.num_agents == has_property_.size(),
                    "observer sized for a different agent count");
    for (std::uint32_t i = v.begin_agent; i < v.end_agent; ++i) {
      if (has_property_[i]) {
        v.concurrent_fill ? prop_counter_.add_concurrent(v.keys[i])
                          : void(prop_counter_.add(v.keys[i]));
      }
    }
  }

  template <typename View>
  void after_round(const View& v) {
    for (std::uint32_t i = v.begin_agent; i < v.end_agent; ++i) {
      total_counts_[i] += v.counter.occupancy(v.keys[i]) - 1;
      const std::uint32_t prop_occ = prop_counter_.occupancy(v.keys[i]);
      property_counts_[i] += prop_occ - (has_property_[i] ? 1 : 0);
    }
  }

  const std::vector<std::uint64_t>& total_counts() const {
    return total_counts_;
  }
  const std::vector<std::uint64_t>& property_counts() const {
    return property_counts_;
  }
  std::vector<std::uint64_t> take_total_counts() {
    return std::move(total_counts_);
  }
  std::vector<std::uint64_t> take_property_counts() {
    return std::move(property_counts_);
  }

 private:
  std::vector<bool> has_property_;
  std::vector<std::uint64_t> total_counts_;
  std::vector<std::uint64_t> property_counts_;
  CollisionCounter prop_counter_;
};

/// Snapshots the running estimate c/r of the first `tracked_agents`
/// agents at each checkpoint (Algorithm 1 is anytime).  Reads counts
/// from a CollisionObserver, which must appear *before* this observer in
/// the engine's pack so its counts are current.  Snapshotting happens in
/// the serial end_round hook because it reads counts across every
/// shard's slice.
class TrajectoryObserver {
 public:
  TrajectoryObserver(const CollisionObserver& source,
                     std::uint32_t tracked_agents,
                     std::vector<std::uint32_t> checkpoints);

  void end_round(std::uint32_t round);

  const std::vector<std::uint32_t>& checkpoints() const {
    return checkpoints_;
  }
  /// estimates()[a][i] = agent a's running estimate at checkpoint i.
  const std::vector<std::vector<double>>& estimates() const {
    return estimates_;
  }
  std::vector<std::vector<double>> take_estimates() {
    return std::move(estimates_);
  }

 private:
  const CollisionObserver* source_;
  std::uint32_t tracked_;
  std::vector<std::uint32_t> checkpoints_;
  std::size_t next_checkpoint_ = 0;
  std::vector<std::vector<double>> estimates_;
};

namespace detail {

/// Shared precondition for checkpoint-driven observers: non-empty,
/// 1-based, strictly increasing.
void validate_checkpoints(const std::vector<std::uint32_t>& checkpoints);

template <typename Obs>
inline void notify_begin_round(Obs& obs, std::uint32_t round) {
  if constexpr (requires { obs.begin_round(round); }) {
    obs.begin_round(round);
  }
}

template <typename Obs, typename View, typename Node>
inline void notify_fill(Obs& obs, const View& view,
                        std::span<const Node> positions) {
  if constexpr (requires { obs.fill(view, positions); }) {
    obs.fill(view, positions);
  } else if constexpr (requires { obs.fill(view); }) {
    obs.fill(view);
  }
}

template <typename Obs, typename View, typename Node>
inline void notify_after_round(Obs& obs, const View& view,
                               std::span<const Node> positions) {
  if constexpr (requires { obs.after_round(view, positions); }) {
    obs.after_round(view, positions);
  } else if constexpr (requires { obs.after_round(view); }) {
    obs.after_round(view);
  }
}

template <typename Obs>
inline void notify_end_round(Obs& obs, std::uint32_t round) {
  if constexpr (requires { obs.end_round(round); }) {
    obs.end_round(round);
  }
}

/// An observer that can end the walk early.  Packs without one compile
/// to the fixed-length loop.
template <typename O>
concept StoppingObserver = requires(const O& o) {
  { o.done() } -> std::convertible_to<bool>;
};

template <typename Obs>
inline bool notify_done(const Obs& obs) {
  if constexpr (StoppingObserver<Obs>) {
    return obs.done();
  } else {
    return false;
  }
}

/// One contiguous agent range [begin, end) and the stream that places
/// and steps it.
template <typename Gen>
struct Lane {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  Gen gen;
};

// Stream layout and partition, one overload per policy.
inline std::vector<Lane<rng::Xoshiro256pp>> make_lanes(
    const SingleExec&, std::uint32_t n_agents, std::uint64_t stream_seed) {
  return {{0, n_agents, rng::Xoshiro256pp(stream_seed)}};
}

inline std::vector<Lane<rng::Xoshiro256pp>> make_lanes(
    const ShardExec& exec, std::uint32_t n_agents,
    std::uint64_t stream_seed) {
  const ShardPlan plan = ShardPlan::make(n_agents, exec.shard_size);
  std::vector<Lane<rng::Xoshiro256pp>> lanes;
  lanes.reserve(plan.num_shards());
  for (std::uint32_t s = 0; s < plan.num_shards(); ++s) {
    lanes.push_back({plan.begin(s), plan.end(s),
                     rng::Xoshiro256pp(rng::derive_stream(stream_seed, s))});
  }
  return lanes;
}

inline std::vector<Lane<rng::WideStream>> make_lanes(
    const VectorExec&, std::uint32_t n_agents, std::uint64_t stream_seed) {
  return {{0, n_agents, rng::WideStream(stream_seed)}};
}

/// Threads the policy steps one walk with: only sharded goes wide.
template <ExecPolicy Exec>
unsigned walk_threads(const Exec& exec, std::size_t n_lanes) {
  if constexpr (std::is_same_v<Exec, ShardExec>) {
    const unsigned want =
        exec.threads == 0 ? util::default_thread_count() : exec.threads;
    return static_cast<unsigned>(std::min<std::size_t>(want, n_lanes));
  } else {
    return 1;
  }
}

/// Non-lazy step of one lane: the scalar batched topology API, or the
/// wide stream's vectorized kernels.
template <graph::Topology T>
void step_lane(const T& topo, std::span<typename T::node_type> pos,
               rng::Xoshiro256pp& gen) {
  graph::random_neighbors(
      topo, std::span<const typename T::node_type>(pos), pos, gen);
}

template <graph::Topology T>
void step_lane(const T& topo, std::span<typename T::node_type> pos,
               rng::WideStream& gen) {
  graph::vector_step(topo, pos, gen);
}

/// Counts agents [b, e) at their keys, skipping those `mask` (null =
/// count all) marks dead.  The counter takes its atomic add_concurrent
/// only when shards count at once, and its plain-speed add otherwise; a
/// counter with a prefetch hint (the dense one) gets a lookahead, since
/// random keys defeat the hardware prefetcher.
template <typename Counter>
void count_lane(Counter& counter, std::span<const std::uint64_t> keys,
                const std::uint8_t* mask, std::uint32_t b, std::uint32_t e,
                bool concurrent) {
  const auto add = [&](std::uint64_t key) {
    concurrent ? counter.add_concurrent(key) : void(counter.add(key));
  };
  if (mask != nullptr) {
    for (std::uint32_t i = b; i < e; ++i) {
      if (mask[i] != 0) {
        add(keys[i]);
      }
    }
  } else if constexpr (requires { counter.prefetch(keys[b]); }) {
    constexpr std::uint32_t kAhead = 8;
    for (std::uint32_t i = b; i < e; ++i) {
      if (i + kAhead < e) {
        counter.prefetch(keys[i + kAhead]);
      }
      add(keys[i]);
    }
  } else {
    for (std::uint32_t i = b; i < e; ++i) {
      add(keys[i]);
    }
  }
}

/// Dynamics models work on uint64 node handles (graph::AnyTopology);
/// any other substrate must not carry one.
template <typename Node>
WorldDynamics* dynamics_of(const WalkConfig& cfg) {
  if constexpr (std::is_same_v<Node, std::uint64_t>) {
    return cfg.dynamics;
  } else {
    ANTDENSE_CHECK(cfg.dynamics == nullptr,
                   "dynamics models require a uint64-node topology "
                   "(run via graph::AnyTopology)");
    return nullptr;
  }
}

/// Positions as the span a model takes (empty, and never used, for
/// node types dynamics_of rejects).
template <typename Node>
std::span<std::uint64_t> model_span(std::vector<Node>& pos) {
  if constexpr (std::is_same_v<Node, std::uint64_t>) {
    return pos;
  } else {
    return {};
  }
}

/// The round loop behind run_walk, for one policy and counter.
template <graph::Topology T, ExecPolicy Exec, typename Counter,
          class... Obs>
void run_rounds(const T& topo, const WalkConfig& cfg,
                std::uint64_t stream_seed, const Exec& exec,
                Counter& counter,
                const std::vector<typename T::node_type>* initial_positions,
                Obs&... observers) {
  using node = typename T::node_type;
  using View = BasicRoundView<Counter>;
  static_assert((WalkObserverForView<Obs, node, View> && ...),
                "every observer needs a hook callable with this engine's "
                "round view");
  const std::uint32_t n_agents = cfg.num_agents;

  auto lanes = make_lanes(exec, n_agents, stream_seed);
  using LaneT = typename decltype(lanes)::value_type;
  rng::Xoshiro256pp vector_obs_gen(
      rng::derive_seed(stream_seed, kVectorObserverTag));
  const auto observer_gen = [&](LaneT& lane) -> rng::Xoshiro256pp& {
    if constexpr (std::is_same_v<Exec, VectorExec>) {
      return vector_obs_gen;
    } else {
      return lane.gen;
    }
  };

  // Placement draws come from each lane's own stream, so placement is
  // as thread-count-invariant as the walk itself.
  std::vector<node> pos(n_agents);
  if (initial_positions != nullptr) {
    pos = *initial_positions;
  } else {
    for (LaneT& lane : lanes) {
      for (std::uint32_t i = lane.begin; i < lane.end; ++i) {
        pos[i] = topo.random_node(lane.gen);
      }
    }
  }

  std::vector<std::uint64_t> keys(n_agents);
  const bool lazy = cfg.lazy_probability > 0.0;
  const unsigned threads = walk_threads(exec, lanes.size());
  const bool concurrent = threads > 1;

  // Dynamics plumbing: dormant — null model, no copies, per-round
  // branches only — for static walks.  The mutation generator is its
  // own domain-tagged stream; the walk streams never see it.
  WorldDynamics* const dyn = dynamics_of<node>(cfg);
  const bool rewrites = dyn != nullptr && dyn->rewrites_moves();
  const std::uint8_t* const count_mask =
      dyn != nullptr ? dyn->count_mask() : nullptr;
  rng::Xoshiro256pp mut_gen(
      dyn != nullptr
          ? rng::derive_mutation_stream(stream_seed, dyn->model_seed())
          : 0);
  std::vector<node> prev(rewrites ? n_agents : 0);

  // Sharded fuses step and count into one parallel phase, so it times
  // them as one.
  constexpr bool kFused = std::is_same_v<Exec, ShardExec>;
  constexpr std::size_t kObservePhase = kFused ? 1 : 2;
  constexpr std::size_t kMutatePhase = kObservePhase + 1;
  obs::EngineTap tap = [] {
    if constexpr (std::is_same_v<Exec, SingleExec>) {
      return obs::EngineTap("single", {"step", "count", "observe", "mutate"});
    } else if constexpr (std::is_same_v<Exec, ShardExec>) {
      return obs::EngineTap("sharded", {"step_count", "observe", "mutate"});
    } else {
      return obs::EngineTap("vector", {"step", "count", "observe", "mutate"});
    }
  }();

  std::uint32_t round = 0;
  const std::span<const node> positions(pos);
  const auto view_of = [&](LaneT& lane) {
    return View{round,
                lane.begin,
                lane.end,
                n_agents,
                std::span<const std::uint64_t>(keys),
                counter,
                observer_gen(lane),
                concurrent};
  };
  const auto step = [&](LaneT& lane) {
    const std::uint32_t b = lane.begin;
    const std::uint32_t e = lane.end;
    if (rewrites) {
      // After mutation, which may relocate evicted or reborn agents.
      std::copy(pos.begin() + b, pos.begin() + e, prev.begin() + b);
    }
    if (lazy) {
      // Interleaved stay/step draws: the stream stays one flat sequence
      // regardless of who moved, so no batching here.
      for (std::uint32_t i = b; i < e; ++i) {
        if (!rng::bernoulli(lane.gen, cfg.lazy_probability)) {
          pos[i] = topo.random_neighbor(pos[i], lane.gen);
        }
      }
    } else {
      step_lane(topo, std::span<node>(pos).subspan(b, e - b), lane.gen);
    }
    if (rewrites) {
      // Deterministic veto/deflection of moves the mutated world
      // blocks: the walk stream drew the step exactly as a static walk
      // would have.
      dyn->rewrite_moves(model_span(prev), model_span(pos), b, e);
    }
  };
  const auto count = [&](LaneT& lane) {
    const std::uint32_t b = lane.begin;
    const std::uint32_t e = lane.end;
    graph::node_keys(topo, positions.subspan(b, e - b),
                     std::span<std::uint64_t>(keys).subspan(b, e - b));
    count_lane(counter, keys, count_mask, b, e, concurrent);
  };
  const auto fill = [&](LaneT& lane) {
    const View view = view_of(lane);
    (detail::notify_fill(observers, view, positions), ...);
  };
  const auto observe = [&](LaneT& lane) {
    const View view = view_of(lane);
    (detail::notify_after_round(observers, view, positions), ...);
  };

  // The fused policy's two phases.  Its pool outlives the round loop,
  // so each phase is a barrier its workers mostly spin through, not a
  // thread spawn, and the phases are wrapped in std::function once
  // rather than per dispatch.  A one-thread pool runs the same shards
  // inline, in the same order, so its output is identical.
  util::WorkerPool pool(threads);
  const std::function<void(std::size_t)> phase_a = [&](std::size_t s) {
    step(lanes[s]);
    count(lanes[s]);
    fill(lanes[s]);
  };
  const std::function<void(std::size_t)> phase_b = [&](std::size_t s) {
    observe(lanes[s]);
  };

  std::uint32_t rounds_run = cfg.rounds;
  for (round = 1; round <= cfg.rounds; ++round) {
    counter.begin_round();
    if (dyn != nullptr && round > 1) {
      // The world is pristine in round 1: mutation runs between rounds.
      const obs::EngineTap::PhaseSpan phase(tap, kMutatePhase);
      dyn->mutate(round, mut_gen, model_span(pos));
    }
    (detail::notify_begin_round(observers, round), ...);
    if constexpr (kFused) {
      {
        const obs::EngineTap::PhaseSpan phase(tap, 0);
        pool.run(lanes.size(), phase_a);
      }
      const obs::EngineTap::PhaseSpan phase(tap, kObservePhase);
      pool.run(lanes.size(), phase_b);
    } else {
      LaneT& lane = lanes.front();
      {
        const obs::EngineTap::PhaseSpan phase(tap, 0);
        step(lane);
      }
      {
        const obs::EngineTap::PhaseSpan phase(tap, 1);
        count(lane);
      }
      const obs::EngineTap::PhaseSpan phase(tap, kObservePhase);
      fill(lane);
      observe(lane);
    }
    (detail::notify_end_round(observers, round), ...);
    if constexpr ((StoppingObserver<Obs> || ...)) {
      if ((detail::notify_done(observers) || ...)) {
        rounds_run = round;
        break;
      }
    }
  }
  tap.add_rounds(rounds_run);
  tap.add_agent_steps(static_cast<std::uint64_t>(rounds_run) * n_agents);
}

}  // namespace detail

/// Runs the synchronous round loop under execution policy `exec`: place
/// agents (uniform i.i.d. from the policy's streams, or the caller's
/// `initial_positions`), step them `cfg.rounds` times (fewer when an
/// observer's done() ends the walk), count occupancy, and fire every
/// observer hook each round.  `stream_seed` seeds the policy's streams
/// directly — callers that expose a user-facing seed derive their own
/// stream tag first (see run_density_walk).
/// Deterministic in `stream_seed` (and ShardExec::shard_size); never in
/// ShardExec::threads.
template <graph::Topology T, ExecPolicy Exec, class... Obs>
void run_walk(const T& topo, const WalkConfig& cfg, std::uint64_t stream_seed,
              const Exec& exec,
              const std::vector<typename T::node_type>* initial_positions,
              Obs&... observers) {
  cfg.validate();
  ANTDENSE_CHECK(initial_positions == nullptr ||
                     initial_positions->size() == cfg.num_agents,
                 "initial positions must match agent count");
  if constexpr (!std::is_same_v<Exec, SingleExec>) {
    if (use_dense_counter(topo.num_nodes())) {
      DenseCollisionCounter counter(topo.num_nodes());
      detail::run_rounds(topo, cfg, stream_seed, exec, counter,
                         initial_positions, observers...);
      return;
    }
  }
  CollisionCounter counter(cfg.num_agents);
  detail::run_rounds(topo, cfg, stream_seed, exec, counter, initial_positions,
                     observers...);
}

}  // namespace antdense::sim
