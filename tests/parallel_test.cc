#include "common/parallel.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace invarnetx {
namespace {

TEST(EffectiveThreadCountTest, ResolvesRequests) {
  EXPECT_GE(EffectiveThreadCount(0), 1);
  EXPECT_GE(EffectiveThreadCount(-3), 1);
  EXPECT_EQ(EffectiveThreadCount(1), 1);
  EXPECT_EQ(EffectiveThreadCount(7), 7);
  EXPECT_EQ(EffectiveThreadCount(kMaxThreads + 50), kMaxThreads);
}

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    const size_t n = 1000;
    std::vector<std::atomic<int>> counts(n);
    Status status = ParallelFor(n, threads, [&](size_t i) {
      counts[i].fetch_add(1, std::memory_order_relaxed);
      return Status::Ok();
    });
    ASSERT_TRUE(status.ok()) << status.ToString();
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(counts[i].load(), 1) << "index " << i << " with " << threads
                                     << " threads";
    }
  }
}

TEST(ParallelForTest, EmptyRangeIsOk) {
  bool ran = false;
  Status status = ParallelFor(0, 8, [&](size_t) {
    ran = true;
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_FALSE(ran);
}

TEST(ParallelForTest, ReturnsLowestFailingIndexError) {
  // Indices 100, 250 and 900 fail; every thread count must report index
  // 100's message, matching the serial loop's first error.
  for (int threads : {1, 2, 8}) {
    Status status = ParallelFor(1000, threads, [&](size_t i) -> Status {
      if (i == 100 || i == 250 || i == 900) {
        return Status::Internal("index " + std::to_string(i));
      }
      return Status::Ok();
    });
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInternal);
    EXPECT_NE(status.ToString().find("index 100"), std::string::npos)
        << status.ToString() << " with " << threads << " threads";
  }
}

TEST(ParallelForTest, NestedCallsComplete) {
  // Inner ParallelFor calls run from worker context; caller participation
  // means they can never starve waiting on pool slots.
  std::atomic<int> total{0};
  Status status = ParallelFor(8, 4, [&](size_t) {
    return ParallelFor(8, 4, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
      return Status::Ok();
    });
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelForTest, ManyMoreTasksThanWorkers) {
  std::atomic<int64_t> sum{0};
  Status status = ParallelFor(10000, 3, [&](size_t i) {
    sum.fetch_add(static_cast<int64_t>(i), std::memory_order_relaxed);
    return Status::Ok();
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(sum.load(), int64_t{10000} * 9999 / 2);
}

TEST(ThreadPoolTest, GrowsOnDemandAndRunsSubmittedTasks) {
  ThreadPool& pool = ThreadPool::Shared();
  const int start = pool.size();
  EXPECT_GE(start, 1);
  pool.EnsureSize(start + 2);
  EXPECT_EQ(pool.size(), start + 2);
  pool.EnsureSize(1);  // never shrinks
  EXPECT_EQ(pool.size(), start + 2);

  // Submitted tasks all run; ParallelFor over the same pool alongside
  // direct submissions must not interfere. The counter is shared with the
  // tasks, so a task that outlives this scope never touches a dead stack.
  auto done = std::make_shared<std::atomic<int>>(0);
  for (int i = 0; i < 20; ++i) {
    pool.Submit([done] { done->fetch_add(1, std::memory_order_relaxed); });
  }
  Status status =
      ParallelFor(100, 4, [&](size_t) { return Status::Ok(); });
  EXPECT_TRUE(status.ok());
  for (int spin = 0; spin < 5000 && done->load() < 20; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(done->load(), 20);
}

}  // namespace
}  // namespace invarnetx
