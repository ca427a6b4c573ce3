// Tests for common::ThreadPool: result/exception plumbing, parallel_for
// coverage and nesting, workers started on demand, and clean shutdown. These carry the "sanitize" ctest
// label so a -DEWC_SANITIZE=thread build can focus on them.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"

namespace ewc::common {
namespace {

TEST(ThreadPool, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ZeroThreadsPicksAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> touched(kN);
  pool.parallel_for(0, kN, [&](std::size_t i) { touched[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForHandlesEmptyAndOffsetRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(10, 14, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 10u + 11u + 12u + 13u);
}

TEST(ThreadPool, ParallelForRethrowsAnIterationFailure) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("iteration 37");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForInsidePoolTaskDoesNotDeadlock) {
  // The caller participates in its own loop, so a nested parallel_for makes
  // progress even when every worker is busy (pool of one is the worst case).
  ThreadPool pool(1);
  auto f = pool.submit([&pool] {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(0, 32, [&](std::size_t i) { sum.fetch_add(i + 1); });
    return sum.load();
  });
  EXPECT_EQ(f.get(), (32u * 33u) / 2u);
}

TEST(ThreadPool, StatsCountSubmittedAndExecuted) {
  ThreadPool pool(2);
  for (int i = 0; i < 5; ++i) pool.submit([] {}).get();
  const auto s = pool.stats();
  EXPECT_GE(s.submitted, 5u);
  EXPECT_EQ(s.executed, s.submitted);
}

TEST(ThreadPool, SharedPoolIsASingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
  EXPECT_GE(ThreadPool::shared().size(), 1u);
}

TEST(ThreadPool, ManyConcurrentSubmittersStayConsistent) {
  // Hammer the queue from several client threads at once; under
  // -DEWC_SANITIZE=thread this is the shutdown/data-race probe.
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&pool, &total] {
      std::vector<std::future<void>> fs;
      for (int i = 0; i < 200; ++i) {
        fs.push_back(pool.submit([&total] { total.fetch_add(1); }));
      }
      for (auto& f : fs) f.get();
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(total.load(), 4 * 200);
}

/// A gate the tests' jobs block on until the test opens it.
class Gate {
 public:
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(ThreadPoolOnDemand, NoWorkerExistsBeforeTheFirstPost) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(pool.threads(), 0u);
  pool.wait_idle();  // nothing to wait for
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
  EXPECT_EQ(pool.threads(), 1u);
}

TEST(ThreadPoolOnDemand, SequentialPostsReuseTheIdleWorker) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    pool.post([&ran] { ran.fetch_add(1); });
    pool.wait_idle();
  }
  EXPECT_EQ(ran.load(), 50);
  EXPECT_EQ(pool.threads(), 1u);
}

TEST(ThreadPoolOnDemand, ABurstOfBlockingJobsStopsGrowingAtTheCap) {
  ThreadPool pool(3);
  Gate gate;
  std::atomic<int> ran{0};
  for (int i = 0; i < 12; ++i) {
    pool.post([&] {
      gate.wait();
      ran.fetch_add(1);
    });
    EXPECT_LE(pool.threads(), 3u);
  }
  // No worker was idle for any of the first three jobs.
  EXPECT_EQ(pool.threads(), 3u);
  gate.open();
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 12);
  EXPECT_EQ(pool.threads(), 3u);
}

TEST(ThreadPoolOnDemand, ParallelForInsideTasksCompletesAtTheCap) {
  // Both workers run a task that itself fans out: the helpers find no idle
  // worker and no room to grow, and each caller runs its own loop.
  ThreadPool pool(2);
  Gate gate;
  auto fan_out = [&] {
    gate.wait();
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(0, 64, [&](std::size_t i) { sum.fetch_add(i + 1); });
    return sum.load();
  };
  auto a = pool.submit(fan_out);
  auto b = pool.submit(fan_out);
  EXPECT_EQ(pool.threads(), 2u);
  gate.open();
  EXPECT_EQ(a.get(), (64u * 65u) / 2u);
  EXPECT_EQ(b.get(), (64u * 65u) / 2u);
  EXPECT_EQ(pool.threads(), 2u);
}

TEST(ThreadPoolOnDemand, DestroyingAGrowingPoolJoinsCleanly) {
  // Jobs that post more jobs keep the pool growing while the destructor
  // runs; under -DEWC_SANITIZE=thread this is the teardown race probe.
  std::atomic<int> ran{0};
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(4);
    for (int i = 0; i < 4; ++i) {
      pool.post([&pool, &ran] {
        ran.fetch_add(1);
        pool.post([&ran] { ran.fetch_add(1); });
      });
    }
  }
  EXPECT_EQ(ran.load(), 20 * 8);
}

}  // namespace
}  // namespace ewc::common
