#include "util/parallel.hpp"

#include <algorithm>

namespace antdense::util {

unsigned default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void parallel_for(std::size_t num_tasks,
                  const std::function<void(std::size_t)>& fn,
                  unsigned num_threads) {
  parallel_for_stoppable(
      num_tasks, [&fn](std::size_t i, std::stop_token) { fn(i); },
      num_threads);
}

void parallel_for_stoppable(
    std::size_t num_tasks,
    const std::function<void(std::size_t, std::stop_token)>& fn,
    unsigned num_threads, const std::function<bool()>& should_stop) {
  if (num_threads == 0) {
    num_threads = default_thread_count();
  }
  if (num_tasks == 0) {
    return;
  }
  num_threads = std::min<std::size_t>(num_threads, num_tasks);

  std::stop_source stop;
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  auto worker = [&](std::stop_token token) {
    while (!token.stop_requested()) {
      if (should_stop && should_stop()) {
        stop.request_stop();
        return;
      }
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_tasks) {
        return;
      }
      try {
        fn(i, token);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) {
          first_error = std::current_exception();
        }
        stop.request_stop();
        return;
      }
    }
  };

  if (num_threads == 1) {
    // Same path single-threaded, so behavior (including the stop token
    // the task can poll) is identical for any worker count.
    worker(stop.get_token());
  } else {
    std::vector<std::jthread> threads;
    threads.reserve(num_threads);
    for (unsigned w = 0; w < num_threads; ++w) {
      threads.emplace_back([&] { worker(stop.get_token()); });
    }
    threads.clear();  // join
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace antdense::util
