#include "sim/collision_counter.hpp"

#include <atomic>
#include <bit>
#include <thread>

namespace antdense::sim {

static_assert(alignof(std::uint32_t) >=
                  std::atomic_ref<std::uint32_t>::required_alignment,
              "add_concurrent takes atomic_refs to plain slot fields");

CollisionCounter::CollisionCounter(std::size_t max_occupancy)
    : max_occupancy_(max_occupancy) {
  ANTDENSE_CHECK(max_occupancy >= 1, "counter needs capacity for >= 1 agent");
  const std::size_t wanted = std::bit_ceil(max_occupancy * 4);
  slots_.resize(wanted < 16 ? 16 : wanted);
  mask_ = slots_.size() - 1;
}

void CollisionCounter::begin_round() {
  ++epoch_;
  if (epoch_ == kBusyBit) {
    // Epoch counter wrapped (after 2^31 rounds, below add_concurrent's
    // busy bit): hard-reset tags so stale slots cannot alias epoch 1.
    for (Slot& s : slots_) {
      s.epoch = 0;
    }
    epoch_ = 1;
  }
  inserted_this_round_ = 0;
}

std::uint32_t CollisionCounter::add(std::uint64_t key) {
  ANTDENSE_CHECK(epoch_ != 0, "begin_round() must be called before add()");
  std::uint64_t i = mix(key) & mask_;
  while (true) {
    Slot& s = slots_[i];
    if (s.epoch != epoch_) {
      ANTDENSE_ASSERT(inserted_this_round_ < max_occupancy_,
                      "more distinct keys than declared max occupancy");
      s.key = key;
      s.epoch = epoch_;
      s.count = 1;
      ++inserted_this_round_;
      return 1;
    }
    if (s.key == key) {
      return ++s.count;
    }
    i = (i + 1) & mask_;
  }
}

void CollisionCounter::add_concurrent(std::uint64_t key) {
  ANTDENSE_CHECK(epoch_ != 0,
                 "begin_round() must be called before add_concurrent()");
  const std::uint32_t epoch = epoch_;
  std::uint64_t i = mix(key) & mask_;
  while (true) {
    Slot& s = slots_[i];
    std::atomic_ref<std::uint32_t> state(s.epoch);
    std::uint32_t seen = state.load(std::memory_order_acquire);
    if (seen == epoch) {
      // Claimed this round; the acquire above makes the claimer's key
      // write visible.
      if (s.key == key) {
        std::atomic_ref<std::uint32_t>(s.count).fetch_add(
            1, std::memory_order_relaxed);
        return;
      }
      i = (i + 1) & mask_;
      continue;
    }
    if (seen == (epoch | kBusyBit)) {
      // Another thread is mid-claim (three stores away) — but it may be
      // descheduled on an oversubscribed host, so yield rather than
      // burn the rest of a timeslice spinning.
      std::this_thread::yield();
      continue;
    }
    // Stale slot: claim it.  A failed CAS (someone else claimed or is
    // claiming it) re-examines the same slot.
    if (state.compare_exchange_weak(seen, epoch | kBusyBit,
                                    std::memory_order_acquire,
                                    std::memory_order_relaxed)) {
      s.key = key;
      s.count = 1;
      state.store(epoch, std::memory_order_release);
      return;
    }
  }
}

std::uint32_t CollisionCounter::occupancy(std::uint64_t key) const {
  if (epoch_ == 0) {
    return 0;
  }
  std::uint64_t i = mix(key) & mask_;
  while (true) {
    const Slot& s = slots_[i];
    if (s.epoch != epoch_) {
      return 0;
    }
    if (s.key == key) {
      return s.count;
    }
    i = (i + 1) & mask_;
  }
}

}  // namespace antdense::sim
