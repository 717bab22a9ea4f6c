// Tests for util::WorkerPool — the sharded engine's substrate.  The
// pool's contract: every index runs exactly once per run(), run() is a
// full barrier, the pool is reusable across thousands of run() calls
// (one pair per walk round) whether its workers catch a run while
// spinning or after parking, it shuts down from either state, and the
// first task exception surfaces on the caller after the barrier without
// poisoning later runs.
#include "util/worker_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace antdense::util {
namespace {

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    WorkerPool pool(threads);
    std::vector<std::atomic<int>> hits(257);
    pool.run(hits.size(),
             [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(WorkerPool, RejectsZeroThreads) {
  EXPECT_THROW(WorkerPool(0), std::invalid_argument);
}

TEST(WorkerPool, ZeroTasksIsANoop) {
  WorkerPool pool(4);
  pool.run(0, [](std::size_t) { FAIL() << "no task should run"; });
}

TEST(WorkerPool, IsABarrier) {
  // Writes from every task must be visible to the caller after run():
  // summing without synchronization would be flagged by TSan and would
  // miss increments if run() returned early.
  WorkerPool pool(4);
  std::vector<std::uint64_t> cells(1000, 0);
  pool.run(cells.size(), [&](std::size_t i) { cells[i] = i + 1; });
  const std::uint64_t sum =
      std::accumulate(cells.begin(), cells.end(), std::uint64_t{0});
  EXPECT_EQ(sum, 1000ull * 1001ull / 2ull);
}

TEST(WorkerPool, ReusableAcrossManyRuns) {
  // The engine issues two run() calls per round for thousands of
  // rounds; the generation handshake must never wedge or drop tasks.
  WorkerPool pool(3);
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 2000; ++round) {
    pool.run(7, [&](std::size_t i) {
      total.fetch_add(i + 1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 2000ull * (7ull * 8ull / 2ull));
}

TEST(WorkerPool, RunsAgainAfterWorkersPark) {
  // A sleep far past the spin window sends every worker to its condvar;
  // the next run() must wake them all and still run each index once.
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  const auto tally = [&](std::size_t i) { hits[i].fetch_add(1); };
  pool.run(hits.size(), tally);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  pool.run(hits.size(), tally);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 2) << "index " << i;
  }
}

TEST(WorkerPool, DestroyedWhileWorkersSpin) {
  // Right after a run() the workers are still spinning for the next
  // generation; destruction must release and join them from there.
  for (int rep = 0; rep < 50; ++rep) {
    std::atomic<int> count{0};
    {
      WorkerPool pool(2);
      pool.run(8, [&](std::size_t) { count.fetch_add(1); });
    }
    EXPECT_EQ(count.load(), 8);
  }
}

TEST(WorkerPool, FirstExceptionPropagatesAndPoolSurvives) {
  WorkerPool pool(4);
  EXPECT_THROW(
      pool.run(100,
               [&](std::size_t i) {
                 if (i == 13) {
                   throw std::runtime_error("boom");
                 }
               }),
      std::runtime_error);
  // The pool must be clean afterwards: a later run works and does not
  // re-throw the stale error.
  std::atomic<int> count{0};
  pool.run(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(WorkerPool, SingleThreadPoolRunsInline) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<int> order;
  pool.run(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace antdense::util
