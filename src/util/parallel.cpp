#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "util/worker_pool.hpp"

namespace antdense::util {

unsigned default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void parallel_for(std::size_t num_tasks,
                  const std::function<void(std::size_t)>& fn,
                  unsigned num_threads,
                  const std::function<bool()>& should_stop) {
  if (num_tasks == 0) {
    return;
  }
  if (num_threads == 0) {
    num_threads = default_thread_count();
  }
  WorkerPool pool(
      static_cast<unsigned>(std::min<std::size_t>(num_threads, num_tasks)));
  // Sticky, so a predicate that flips back cannot restart the queue;
  // the indices left after a stop are claimed and skipped.
  std::atomic<bool> stopped{false};
  pool.run(num_tasks, [&](std::size_t i) {
    if (stopped.load(std::memory_order_relaxed) ||
        (should_stop && should_stop())) {
      stopped.store(true, std::memory_order_relaxed);
      return;
    }
    fn(i);
  });
}

}  // namespace antdense::util
