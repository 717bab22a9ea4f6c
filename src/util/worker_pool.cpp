#include "util/worker_pool.hpp"

#include <utility>

#include "util/check.hpp"

namespace antdense::util {

namespace {

/// Iterations a waiter spins through before it parks: about half a
/// millisecond on a recent x86 core, long enough to span the serial gap
/// and the shard imbalance between two engine phases.
constexpr unsigned kSpinIterations = 1u << 14;
/// Every this many iterations the spinner yields instead of pausing, so
/// a waiter that shares its core with the thread it waits for (a pool
/// wider than the machine, or a busy host) steps aside for it.
constexpr unsigned kYieldEvery = 64;

/// Tells the core this is a spin-wait (frees pipeline resources for the
/// sibling hyperthread); elsewhere a plain compiler barrier stands in.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Spins until `ready()` holds or the spin budget runs out; returns
/// whether it holds.
template <typename Pred>
bool spin_until(const Pred& ready) {
  for (unsigned i = 1; i <= kSpinIterations; ++i) {
    if (ready()) {
      return true;
    }
    if (i % kYieldEvery == 0) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }
  return ready();
}

}  // namespace

WorkerPool::WorkerPool(unsigned num_threads) : num_threads_(num_threads) {
  ANTDENSE_CHECK(num_threads >= 1, "worker pool needs at least one thread");
  workers_.reserve(num_threads - 1);
  for (unsigned w = 0; w + 1 < num_threads; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    // Under the mutex so a worker between its predicate check and its
    // wait cannot miss the flag.
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_.store(true, std::memory_order_release);
  }
  start_cv_.notify_all();
  // jthread joins on destruction.
}

void WorkerPool::work() {
  // fn_/num_tasks_ are stable for the whole generation: run() rewrites
  // them only after every worker has left it.
  const std::function<void(std::size_t)>& fn = *fn_;
  const std::size_t num_tasks = num_tasks_;
  while (true) {
    const std::size_t i = next_task_.fetch_add(1, std::memory_order_relaxed);
    if (i >= num_tasks) {
      return;
    }
    try {
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) {
        first_error_ = std::current_exception();
      }
      // Abandon the rest of this run so the barrier resolves promptly.
      next_task_.store(num_tasks, std::memory_order_relaxed);
      return;
    }
  }
}

void WorkerPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  const auto released = [&] {
    return shutdown_.load(std::memory_order_acquire) ||
           generation_.load(std::memory_order_acquire) != seen_generation;
  };
  while (true) {
    if (!spin_until(released)) {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, released);
    }
    if (shutdown_.load(std::memory_order_acquire)) {
      return;
    }
    // run() cannot start another generation before this worker leaves
    // the current one, so every worker joins every generation once.
    seen_generation = generation_.load(std::memory_order_acquire);
    work();
    if (workers_active_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // The caller may be between its predicate check and its wait;
      // taking the mutex orders this notify after it.
      { const std::lock_guard<std::mutex> lock(mutex_); }
      done_cv_.notify_one();
    }
  }
}

void WorkerPool::run(std::size_t num_tasks,
                     const std::function<void(std::size_t)>& fn) {
  if (workers_.empty()) {
    // One thread: nobody to release or wait for.
    for (std::size_t i = 0; i < num_tasks; ++i) {
      fn(i);
    }
    return;
  }
  if (num_tasks == 0) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    num_tasks_ = num_tasks;
    next_task_.store(0, std::memory_order_relaxed);
    workers_active_.store(static_cast<unsigned>(workers_.size()),
                          std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
  }
  start_cv_.notify_all();
  work();  // the caller is one of the pool's threads
  const auto done = [&] {
    return workers_active_.load(std::memory_order_acquire) == 0;
  };
  if (!spin_until(done)) {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, done);
  }
  // Every worker has left this generation, so nothing else touches the
  // fields below until the next run().
  fn_ = nullptr;
  if (first_error_) {
    std::rethrow_exception(std::exchange(first_error_, nullptr));
  }
}

}  // namespace antdense::util
