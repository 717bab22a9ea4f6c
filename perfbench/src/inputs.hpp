// The benchmark's inputs: every spec, campaign and request the program
// receives, generated from the workload seed alone.  The seed picks walk
// seeds, graph seeds, spec order and the request stream; it never picks
// sizes, so the work a run does is the same for every seed and only the
// sampled values move.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

using antdense::util::JsonValue;

/// One experiment of a walk workload.
struct WalkInput {
  JsonValue spec;      // ScenarioSpec JSON, exactly what the program parses
  std::string family;  // registry family, for pairing and reporting
  bool planned = false;  // rounds = 0: Theorem-1 plan, verdict-checked
};

/// The closed-loop experiment list of `walk-regular`, in the order the
/// loop runs it.  `threads` fills each spec's resource knob (never part
/// of a result's identity).
std::vector<WalkInput> walk_inputs(std::uint64_t seed, unsigned threads);

/// A small sharded spec run once per benchmark run at 1 thread and at
/// `threads` threads; the canonical bytes must match.
JsonValue invariance_spec(const std::string& workload, std::uint64_t seed);

/// The sharded spec timed at 1 thread and at `threads` threads for the
/// `sim.sharded.speedup_nt` layer metric (same for every workload).
JsonValue speedup_spec(std::uint64_t seed);

/// The `sweep-churn` campaign (CampaignSpec JSON).
JsonValue sweep_campaign(std::uint64_t seed, unsigned threads);

/// Dynamics values on the campaign's dynamics axis ("" = static world).
const std::vector<std::string>& sweep_dynamics();

/// `serve-mix` traffic.  Clients draw from a pool of small specs with
/// Zipf popularity; now and then a client asks for a spec nobody has
/// asked for before (a cold miss); and every `kBurstEvery` requests all
/// clients send one shared new spec at once (the single-flight path).
struct ServeRequest {
  enum class Kind { kPool, kFresh, kBurst };
  Kind kind = Kind::kPool;
  JsonValue spec;
};

inline constexpr std::uint64_t kBurstEvery = 48;
inline constexpr double kFreshProbability = 0.04;

/// The pool, most popular first.
std::vector<JsonValue> serve_pool(std::uint64_t seed);

/// Request `index` of client `client`: a pure function of its arguments,
/// so the stream is reproducible and a burst is the same spec for all.
ServeRequest serve_request(const std::vector<JsonValue>& pool,
                           std::uint64_t seed, unsigned client,
                           std::uint64_t index);

}  // namespace perfbench
