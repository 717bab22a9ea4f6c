#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace antdense::util {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kTasks = 1000;
  std::vector<std::atomic<int>> visits(kTasks);
  parallel_for(kTasks, [&](std::size_t i) { ++visits[i]; }, 4);
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ZeroTasksIsNoOp) {
  parallel_for(0, [&](std::size_t) { FAIL() << "must not be called"; }, 2);
}

TEST(ParallelFor, SingleThreadRunsInline) {
  std::vector<std::size_t> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(i); }, 1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, ResultIndependentOfThreadCount) {
  constexpr std::size_t kTasks = 64;
  auto run = [&](unsigned threads) {
    std::vector<double> out(kTasks);
    parallel_for(
        kTasks, [&](std::size_t i) { out[i] = static_cast<double>(i * i); },
        threads);
    return out;
  };
  EXPECT_EQ(run(1), run(2));
  EXPECT_EQ(run(2), run(8));
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(
          100,
          [&](std::size_t i) {
            if (i == 13) {
              throw std::runtime_error("boom");
            }
          },
          4),
      std::runtime_error);
}

TEST(ParallelFor, MoreThreadsThanTasksIsFine) {
  std::atomic<int> total{0};
  parallel_for(3, [&](std::size_t) { ++total; }, 16);
  EXPECT_EQ(total.load(), 3);
}

TEST(DefaultThreadCount, AtLeastOne) {
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(ParallelFor, ExceptionStopsHandingOutWork) {
  // Task 0 throws at once while every other task holds its thread for
  // about a millisecond, so only the tasks already claimed when the
  // exception lands may run; the queue must not drain all 1000.
  std::atomic<int> started{0};
  EXPECT_THROW(
      parallel_for(
          1000,
          [&](std::size_t i) {
            ++started;
            if (i == 0) {
              throw std::runtime_error("boom");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          },
          2),
      std::runtime_error);
  EXPECT_LT(started.load(), 100);
}

TEST(ParallelFor, ShouldStopStartsNoFurtherTask) {
  for (const unsigned threads : {1u, 4u}) {
    // Stops once five tasks have started.  Each thread polls before it
    // starts a task, so a thread that polled just before the fifth
    // start may still start one more: at most threads - 1 extra.
    std::atomic<unsigned> started{0};
    parallel_for(
        1000, [&](std::size_t) { ++started; }, threads,
        [&] { return started.load() >= 5; });
    EXPECT_GE(started.load(), 5u) << threads << " thread(s)";
    EXPECT_LE(started.load(), 5u + threads - 1) << threads << " thread(s)";

    // Already stopped: nothing starts.
    parallel_for(
        10, [&](std::size_t) { FAIL() << "must not be called"; }, threads,
        [] { return true; });
  }
}

}  // namespace
}  // namespace antdense::util
