// Local density measurement on the 2-D torus (Section 2.1.1).
//
// The paper distinguishes the *global* density d = n/A from the *local*
// density an agent actually experiences early in its walk.  These
// helpers compute the ground-truth local density inside an L1 ball so
// the non-uniform-placement experiments can show what short-horizon
// encounter rates really track.  Positions are passed as spans, so an
// observer's in-flight view needs no copy; std::vector arguments
// convert implicitly.
//
// These brute-force functions are the reference for the topology-generic
// scenario::BallDensityObserver, which the local-density workload runs
// on every family (on the torus the two agree bit for bit).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/torus2d.hpp"
#include "util/check.hpp"

namespace antdense::sim {

/// Number of torus nodes within (wrap-aware) L1 distance `radius` of a
/// point — the ball volume 2r² + 2r + 1, clipped if the ball wraps.
std::uint64_t l1_ball_size(const graph::Torus2D& torus, std::uint32_t radius);

/// Agents (from `positions`) within L1 distance `radius` of `center`,
/// excluding an agent standing exactly at `center` at most once (so an
/// agent can ask for the local density *around itself*).
std::uint64_t agents_within(
    const graph::Torus2D& torus,
    std::span<const graph::Torus2D::node_type> positions,
    graph::Torus2D::node_type center, std::uint32_t radius,
    bool exclude_one_at_center);

/// Local density around `center`: (agents in ball, minus self if
/// requested) / ball size.
double local_density(const graph::Torus2D& torus,
                     std::span<const graph::Torus2D::node_type> positions,
                     graph::Torus2D::node_type center, std::uint32_t radius,
                     bool exclude_one_at_center = false);

/// Per-agent local densities: for each agent, the density of *other*
/// agents within `radius` of it.
std::vector<double> per_agent_local_density(
    const graph::Torus2D& torus,
    std::span<const graph::Torus2D::node_type> positions,
    std::uint32_t radius);

}  // namespace antdense::sim
