#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace grafics {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsMapsToHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(8);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> touched(kN);
  pool.ParallelFor(0, kN, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++touched[i];
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(touched[i].load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForSmallRangeFewerChunksThanThreads) {
  ThreadPool pool(16);
  std::atomic<int> sum{0};
  pool.ParallelFor(0, 3, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ThreadPoolTest, TaskExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ManyWavesOfWork) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int wave = 0; wave < 10; ++wave) {
    pool.ParallelFor(0, 1000, [&](std::size_t lo, std::size_t hi) {
      long local = 0;
      for (std::size_t i = lo; i < hi; ++i) local += static_cast<long>(i);
      total += local;
    });
  }
  EXPECT_EQ(total.load(), 10L * 999L * 1000L / 2L);
}

TEST(ThreadPoolTest, TryRunHereRunsOnTheCallerOnlyWhileThePoolIsIdle) {
  ThreadPool pool(2);
  std::thread::id ran_on;
  EXPECT_TRUE(pool.TryRunHere([&] { ran_on = std::this_thread::get_id(); }));
  EXPECT_EQ(ran_on, std::this_thread::get_id());

  // One running task makes the pool busy, though a worker is still free.
  std::promise<void> open;
  std::shared_future<void> gate = open.get_future().share();
  std::promise<void> started;
  auto running = pool.Submit([&started, gate] {
    started.set_value();
    gate.wait();
  });
  started.get_future().wait();
  bool ran = false;
  EXPECT_FALSE(pool.TryRunHere([&] { ran = true; }));
  EXPECT_FALSE(ran);
  open.set_value();
  running.get();
  // The task's claim is released just after its future resolves.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!pool.TryRunHere([&] { ran = true; }) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, TryRunHereClaimIsExclusiveAndCountsAsBusy) {
  ThreadPool pool(2);
  std::atomic<int> inner_claims{0};
  std::atomic<int> submitted_ran{0};
  ASSERT_TRUE(pool.TryRunHere([&] {
    // A second claim — nested on this thread or from another — fails while
    // the first one runs.
    if (pool.TryRunHere([] {})) ++inner_claims;
    std::thread other([&] {
      if (pool.TryRunHere([] {})) ++inner_claims;
    });
    other.join();
    // Submitted work still runs on the workers meanwhile.
    pool.Submit([&] { ++submitted_ran; }).get();
  }));
  EXPECT_EQ(inner_claims.load(), 0);
  EXPECT_EQ(submitted_ran.load(), 1);
}

TEST(ThreadPoolTest, TryRunHereReleasesTheClaimWhenTheTaskThrows) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.TryRunHere([] { throw std::runtime_error("boom"); }),
               std::runtime_error);
  bool ran = false;
  EXPECT_TRUE(pool.TryRunHere([&] { ran = true; }));
  EXPECT_TRUE(ran);
}

}  // namespace
}  // namespace grafics
