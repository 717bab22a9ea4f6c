#include "sim/walk_engine.hpp"

#include <utility>

namespace antdense::sim {

ShardPlan ShardPlan::make(std::uint32_t num_agents,
                          std::uint32_t shard_size) {
  ANTDENSE_CHECK(num_agents >= 1, "shard plan needs at least one agent");
  ANTDENSE_CHECK(shard_size >= 1, "shard size must be at least one agent");
  ShardPlan plan;
  plan.num_agents = num_agents;
  plan.shard_size = shard_size;
  return plan;
}

void WalkConfig::validate() const {
  ANTDENSE_CHECK(num_agents >= 1, "need at least one agent");
  ANTDENSE_CHECK(rounds >= 1, "need at least one round");
  ANTDENSE_CHECK(lazy_probability >= 0.0 && lazy_probability < 1.0,
                 "lazy probability must be in [0,1)");
}

CollisionObserver::CollisionObserver(std::uint32_t num_agents, Noise noise,
                                     const WorldDynamics* model)
    : noise_(noise), model_(model), counts_(num_agents, 0) {
  ANTDENSE_CHECK(num_agents >= 1, "need at least one agent");
  if (model_ != nullptr) {
    observed_rounds_.assign(num_agents, 0);
    seen_birth_.assign(num_agents, 1);
  }
  // Resolved once at construction (on the caller thread, where ambient
  // telemetry is installed); the striped counter is then safe to add to
  // from any shard worker.  Counting happens on deterministic
  // post-noise values, so totals are thread-count-invariant.
  if (obs::Telemetry* tel = obs::ambient_telemetry();
      tel != nullptr && tel->metrics != nullptr) {
    collisions_tap_ = &tel->metrics->counter(
        "antdense_collisions_observed_total", {},
        "Collisions recorded by CollisionObserver (post sensing noise)");
  }
  ANTDENSE_CHECK(noise.detection_miss >= 0.0 && noise.detection_miss <= 1.0,
                 "miss probability must be in [0,1]");
  ANTDENSE_CHECK(noise.spurious >= 0.0 && noise.spurious <= 1.0,
                 "spurious probability must be in [0,1]");
  ANTDENSE_CHECK(noise.dropout >= 0.0 && noise.dropout <= 1.0,
                 "dropout probability must be in [0,1]");
}

std::vector<std::uint32_t> CollisionObserver::take_observed_rounds() {
  for (std::size_t i = 0; i < observed_rounds_.size(); ++i) {
    if (!model_->alive(static_cast<std::uint32_t>(i))) {
      observed_rounds_[i] = 0;  // dead slots carry stale counts
    }
  }
  return std::move(observed_rounds_);
}

PropertyObserver::PropertyObserver(std::vector<bool> has_property)
    : has_property_(std::move(has_property)),
      total_counts_(has_property_.size(), 0),
      property_counts_(has_property_.size(), 0),
      prop_counter_(has_property_.empty() ? 1 : has_property_.size()) {
  ANTDENSE_CHECK(!has_property_.empty(),
                 "property flags must cover at least one agent");
}

void PropertyObserver::begin_round(std::uint32_t) {
  prop_counter_.begin_round();
}

namespace detail {

void validate_checkpoints(const std::vector<std::uint32_t>& checkpoints) {
  ANTDENSE_CHECK(!checkpoints.empty(), "need at least one checkpoint");
  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    ANTDENSE_CHECK(checkpoints[i] >= 1, "checkpoints are 1-based rounds");
    ANTDENSE_CHECK(i == 0 || checkpoints[i] > checkpoints[i - 1],
                   "checkpoints must be strictly increasing");
  }
}

}  // namespace detail

TrajectoryObserver::TrajectoryObserver(const CollisionObserver& source,
                                       std::uint32_t tracked_agents,
                                       std::vector<std::uint32_t> checkpoints)
    : source_(&source),
      tracked_(tracked_agents),
      checkpoints_(std::move(checkpoints)) {
  ANTDENSE_CHECK(tracked_agents >= 1 &&
                     tracked_agents <= source.counts().size(),
                 "tracked agent count out of range");
  detail::validate_checkpoints(checkpoints_);
  estimates_.assign(tracked_, {});
  for (auto& row : estimates_) {
    row.reserve(checkpoints_.size());
  }
}

void TrajectoryObserver::end_round(std::uint32_t round) {
  if (next_checkpoint_ >= checkpoints_.size() ||
      round != checkpoints_[next_checkpoint_]) {
    return;
  }
  const std::vector<std::uint64_t>& counts = source_->counts();
  for (std::uint32_t a = 0; a < tracked_; ++a) {
    estimates_[a].push_back(static_cast<double>(counts[a]) / round);
  }
  ++next_checkpoint_;
}

}  // namespace antdense::sim
