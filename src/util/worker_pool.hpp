// The worker pool: the one place that starts fan-out threads.
//
// util::parallel_for (trial fan-outs, the campaign scheduler) builds
// one for the length of its call; the sharded walk engine keeps one
// across its round loop, whose two synchronized parallel phases *per
// round* (step/count, then observe) each cost a barrier crossing
// instead of a thread spawn.  Pools stay per call because run() is not
// reentrant and fan-outs nest (a campaign worker's experiment opens
// its own trial fan-out).  A one-thread pool spawns no worker: run()
// calls every task inline, in index order.
//
// Workers stay alive across run() calls.  Both sides of the barrier —
// workers waiting for the next run(), the caller waiting for the last
// worker — first spin on atomics for a bounded, compile-time number of
// pause instructions (with an occasional yield, so a spinner never
// starves a thread that shares its core), and only then park on a
// condition variable: the engine's phases follow each other within
// microseconds, so a spinning worker catches the next one without a
// futex wake, while a pool left idle (between trials, after the walk)
// parks within a millisecond.
//
// Each run(num_tasks, fn) invokes fn(i) for every i in [0, num_tasks)
// exactly once, handing indices out through an atomic counter (shards
// can have uneven cost), and returns only after every task has
// finished — run() is a full barrier, which is what makes the engine's
// "no shard observes round r until every shard has counted round r"
// invariant hold.  The calling thread participates in the work, so a
// pool constructed with N threads runs N-wide using N-1 workers.
//
// The first exception thrown by any task is rethrown from run() after
// the barrier; remaining indices of that run are abandoned.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace antdense::util {

class WorkerPool {
 public:
  /// Creates a pool that runs `num_threads` wide (>= 1; the calling
  /// thread counts as one, so num_threads - 1 workers are spawned).
  explicit WorkerPool(unsigned num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned num_threads() const { return num_threads_; }

  /// Runs fn(i) for every i in [0, num_tasks), full barrier on return.
  /// fn must be safe to call concurrently for distinct indices.  Not
  /// reentrant: fn must not call run() on the same pool.
  void run(std::size_t num_tasks, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  void work();

  const unsigned num_threads_;

  // run() writes fn_/num_tasks_ under the mutex and publishes them with
  // the release bump of generation_; a worker that sees the bump may
  // read them until it decrements workers_active_.
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::atomic<std::uint64_t> generation_{0};  // bumped to release workers
  std::size_t num_tasks_ = 0;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::atomic<std::size_t> next_task_{0};
  std::atomic<unsigned> workers_active_{0};
  std::atomic<bool> shutdown_{false};
  std::exception_ptr first_error_;  // set under mutex_; read after barrier

  std::vector<std::jthread> workers_;
};

}  // namespace antdense::util
