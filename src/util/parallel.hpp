// Deterministic parallel fan-out: Monte Carlo trials, campaign
// experiments.
//
// Each trial derives its randomness from its *index*, never from the
// executing thread, so results are bit-identical for any thread count
// (including 1).  parallel_for runs on a util::WorkerPool built for the
// call, which hands indices out through an atomic counter — trials have
// uneven cost, so static partitioning would waste a core.
#pragma once

#include <cstddef>
#include <functional>

namespace antdense::util {

/// Returns a sensible default worker count for this machine (>= 1).
unsigned default_thread_count();

/// Invokes fn(i) for every i in [0, num_tasks) on a WorkerPool of
/// min(num_threads, num_tasks) threads, the calling thread among them
/// (0 = default_thread_count()).  fn must be safe to call concurrently
/// for distinct indices; one thread runs them inline, in index order.
///
/// After the first exception no further task starts; tasks already
/// running still finish (a campaign journals each completed
/// experiment, so a partial pass must leave only whole records behind),
/// and the exception is rethrown once they have.
///
/// `should_stop`, when set, is polled before each task starts; from its
/// first true return on, no further task starts — the hook that lets a
/// signal handler's flag (util/signal.hpp) cancel a campaign without
/// aborting in-flight experiments.  It may be called concurrently, so
/// keep it a flag read.
void parallel_for(std::size_t num_tasks,
                  const std::function<void(std::size_t)>& fn,
                  unsigned num_threads = 0,
                  const std::function<bool()>& should_stop = {});

}  // namespace antdense::util
