#include "core/parallel.h"

#include <atomic>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace s3vcd::core {
namespace {

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(10); });
  pool.Submit([&counter] { counter.fetch_add(100); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 111);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

// Every index of [0, n) is handed to exactly one shard, whatever the
// thread count: the parallel run reproduces the serial one.
TEST(ParallelForTest, CoversEveryIndexOnceForAnyThreadCount) {
  constexpr size_t kN = 1000;
  for (int threads : {1, 2, 4}) {
    std::vector<std::atomic<int>> visits(kN);
    ParallelFor(kN, threads, nullptr, [&](size_t first, size_t last) {
      ASSERT_LT(first, last);
      for (size_t i = first; i < last; ++i) {
        visits[i].fetch_add(1);
      }
    });
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ParallelForTest, EmptyRangeRunsNothing) {
  std::atomic<int> calls{0};
  ParallelFor(0, 4, nullptr, [&](size_t, size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

// Regression test: calls must not construct a ThreadPool per call (thread
// spawn cost on every call). The first call of a given width may create
// the shared pool; every later call reuses it.
TEST(ParallelForTest, RepeatedCallsReuseTheSharedPool) {
  std::atomic<size_t> total{0};
  const auto body = [&](size_t first, size_t last) {
    total.fetch_add(last - first);
  };
  // Warm-up: materializes the shared width-3 pool if this is the first
  // width-3 call of the process.
  ParallelFor(100, 3, nullptr, body);
  const uint64_t created = ThreadPool::TotalPoolsCreated();
  for (int call = 0; call < 4; ++call) {
    ParallelFor(100, 3, nullptr, body);
  }
  EXPECT_EQ(ThreadPool::TotalPoolsCreated(), created)
      << "ParallelFor constructed new pools";
  EXPECT_EQ(total.load(), 500u);
}

TEST(ParallelForTest, CallerOwnedPoolCreatesNoSharedPool) {
  ThreadPool pool(2);  // the one construction this test pays for
  const uint64_t created = ThreadPool::TotalPoolsCreated();
  for (int call = 0; call < 3; ++call) {
    std::vector<std::atomic<int>> visits(64);
    ParallelFor(visits.size(), 1, &pool, [&](size_t first, size_t last) {
      for (size_t i = first; i < last; ++i) {
        visits[i].fetch_add(1);
      }
    });
    for (size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i].load(), 1) << i;
    }
  }
  EXPECT_EQ(ThreadPool::TotalPoolsCreated(), created)
      << "caller-owned pool path built a pool anyway";
}

}  // namespace
}  // namespace s3vcd::core
