// Deterministic parallel trial runner.
//
// Benches run many independent Monte Carlo trials.  Each trial derives its
// randomness from its trial *index*, never from the executing thread, so
// results are bit-identical for any thread count (including 1).  Work is
// handed out via an atomic counter — trials have uneven cost, so static
// partitioning would waste a core.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <stop_token>
#include <thread>
#include <vector>

#include "util/check.hpp"

namespace antdense::util {

/// Returns a sensible default worker count for this machine (>= 1).
unsigned default_thread_count();

/// Invokes fn(i) for every i in [0, num_tasks), distributing indices over
/// `num_threads` workers.  fn must be safe to call concurrently for
/// distinct indices.  The first exception thrown by any task is rethrown
/// on the calling thread after all workers join.  This is
/// parallel_for_stoppable with the stop token ignored.
void parallel_for(std::size_t num_tasks,
                  const std::function<void(std::size_t)>& fn,
                  unsigned num_threads = 0);

/// Cancellable work queue over a std::jthread pool — the campaign
/// scheduler's substrate (and parallel_for's).  fn also receives the
/// pool's stop_token: after the first exception (or an
/// external stop request) no further indices are handed out and
/// long-running tasks can poll the token to bail early.  Tasks that
/// already started still finish (a campaign journals each completed
/// experiment, so a partial pass must leave only whole records behind).
/// The first exception is rethrown after all workers join.
///
/// `should_stop`, when set, is polled by each worker before it claims
/// another index; the first true return trips the pool's stop flag —
/// the hook that lets a signal handler's flag (util/signal.hpp) or a
/// server shutdown cancel a queue without aborting in-flight tasks.
/// Workers may call the predicate concurrently, so keep it a flag read.
void parallel_for_stoppable(
    std::size_t num_tasks,
    const std::function<void(std::size_t, std::stop_token)>& fn,
    unsigned num_threads = 0,
    const std::function<bool()>& should_stop = {});

}  // namespace antdense::util
