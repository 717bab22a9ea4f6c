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

// ---------------------------------------------------------------------
// parallel_for_stoppable — the campaign scheduler's jthread work queue
// ---------------------------------------------------------------------

TEST(ParallelForStoppable, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kTasks = 500;
  std::vector<std::atomic<int>> visits(kTasks);
  parallel_for_stoppable(
      kTasks, [&](std::size_t i, std::stop_token) { ++visits[i]; }, 4);
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForStoppable, ResultIndependentOfThreadCount) {
  constexpr std::size_t kTasks = 64;
  auto run = [&](unsigned threads) {
    std::vector<double> out(kTasks);
    parallel_for_stoppable(
        kTasks,
        [&](std::size_t i, std::stop_token) {
          out[i] = static_cast<double>(i * i);
        },
        threads);
    return out;
  };
  EXPECT_EQ(run(1), run(2));
  EXPECT_EQ(run(2), run(8));
}

TEST(ParallelForStoppable, ExceptionStopsHandingOutWork) {
  // Every other task holds its worker until the stop the throwing task
  // requests, so no worker can drain the queue while the exception
  // unwinds, however slowly.  If stop never comes, every task returns at
  // the shared deadline and all 1000 run, failing the check below.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<int> started{0};
  EXPECT_THROW(
      parallel_for_stoppable(
          1000,
          [&](std::size_t i, std::stop_token token) {
            ++started;
            if (i == 0) {
              throw std::runtime_error("boom");
            }
            while (!token.stop_requested() &&
                   std::chrono::steady_clock::now() < deadline) {
              std::this_thread::yield();
            }
          },
          2),
      std::runtime_error);
  // Only the failing task and the one the other worker claimed run; the
  // queue must not drain all 1000.
  EXPECT_LE(started.load(), 2);
}

TEST(ParallelForStoppable, TokenObservableInsideTasks) {
  // Without an exception no stop is ever requested, single- or
  // multi-threaded.
  std::atomic<int> stopped{0};
  parallel_for_stoppable(
      8,
      [&](std::size_t, std::stop_token token) {
        if (token.stop_requested()) {
          ++stopped;
        }
      },
      3);
  EXPECT_EQ(stopped.load(), 0);
}

}  // namespace
}  // namespace antdense::util
