#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/mpmc_queue.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"

namespace dnj::runtime {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i)
    pool.submit([&] {
      counter.fetch_add(1);
      done.fetch_add(1);
    });
  while (done.load() < 32) std::this_thread::yield();
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, ZeroWorkerPoolIsValid) {
  // parallel_for with the global pool degrades to serial when no workers
  // exist; a standalone zero-worker pool must construct and destruct
  // cleanly.
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
}

TEST(ThreadPool, ZeroWorkerPoolDrainsSubmissionBurstOnDestruction) {
  // A burst submitted to a zero-worker pool has nobody to run it while the
  // pool lives; the destructor's drain guarantee runs it inline, in
  // submission order.
  std::vector<int> ran;
  {
    ThreadPool pool(0);
    for (int i = 0; i < 100; ++i) pool.submit([&ran, i] { ran.push_back(i); });
    EXPECT_TRUE(ran.empty());  // nothing runs while the pool is alive
  }
  ASSERT_EQ(ran.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ran[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, ShutdownWithBacklogDrainsInSubmissionOrder) {
  // Destroying a pool whose single worker is wedged behind a gate must
  // first finish the whole backlog, picking tasks up in FIFO order.
  std::vector<int> ran;
  std::mutex ran_mutex;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  {
    ThreadPool pool(1);
    pool.submit([opened] { opened.wait(); });
    for (int i = 0; i < 64; ++i)
      pool.submit([&ran, &ran_mutex, i] {
        std::lock_guard<std::mutex> lock(ran_mutex);
        ran.push_back(i);
      });
    gate.set_value();
    // Destructor joins; the worker must drain all 64 queued tasks first.
  }
  ASSERT_EQ(ran.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(ran[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, ExceptionFreeTaskContractPattern) {
  // Tasks must not throw; submitters honor the contract by capturing
  // failures inside the task (the parallel helpers stash them in loop
  // state, the serving layer converts them to error responses). This
  // pins the pattern: a bursty mix of failing bodies never unwinds a
  // worker, and every failure is observable afterwards.
  std::atomic<int> failures{0};
  std::atomic<int> done{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 200; ++i)
      pool.submit([&failures, &done, i] {
        try {
          if (i % 3 == 0) throw std::runtime_error("body failed");
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
        done.fetch_add(1);
      });
  }
  EXPECT_EQ(done.load(), 200);
  EXPECT_EQ(failures.load(), 67);  // ceil(200 / 3)
}

TEST(ThreadPool, DefaultThreadsIsPositive) { EXPECT_GE(ThreadPool::default_threads(), 1u); }

TEST(ParallelFor, EmptyRangeRunsNothing) {
  std::atomic<int> calls{0};
  parallel_for(5, 5, 1, [&](std::size_t) { calls.fetch_add(1); });
  parallel_for(7, 3, 1, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, SingletonRangeRunsOnce) {
  std::atomic<int> calls{0};
  std::size_t seen = 0;
  parallel_for(41, 42, 8, [&](std::size_t i) {
    calls.fetch_add(1);
    seen = i;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen, 41u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  for (int threads : {1, 2, 4, 8}) {
    for (auto& h : hits) h.store(0);
    parallel_for(
        0, kN, 7, [&](std::size_t i) { hits[i].fetch_add(1); }, threads);
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ZeroGrainIsTreatedAsOne) {
  std::atomic<int> calls{0};
  parallel_for(0, 100, 0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 100);
}

TEST(ParallelFor, PropagatesExceptions) {
  for (int threads : {1, 4}) {
    try {
      parallel_for(
          0, 1000, 3,
          [&](std::size_t i) {
            if (i == 137) throw std::runtime_error("boom at 137");
          },
          threads);
      FAIL() << "expected exception (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 137");
    }
  }
}

TEST(ParallelFor, SurvivesAfterAnExceptionalLoop) {
  // The pool must stay usable after a failed loop abandoned its chunks.
  EXPECT_THROW(parallel_for(0, 100, 1,
                            [](std::size_t) { throw std::logic_error("dead"); }),
               std::logic_error);
  std::atomic<int> calls{0};
  parallel_for(0, 100, 1, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 100);
}

TEST(ParallelFor, NestedLoopsDoNotDeadlock) {
  std::atomic<int> calls{0};
  parallel_for(0, 8, 1, [&](std::size_t) {
    parallel_for(0, 8, 1, [&](std::size_t) { calls.fetch_add(1); });
  });
  EXPECT_EQ(calls.load(), 64);
}

TEST(ParallelFor, NestedLoopRunsInlineOnTheOuterChunksThread) {
  // Two outer chunks leave pool workers idle, so an inner loop that fanned
  // out would have its slow chunks picked up by them.
  constexpr std::size_t kOuter = 2, kInner = 32;
  const auto run = [&](int threads) {
    std::vector<std::size_t> out(kOuter * kInner, 0);
    std::atomic<int> off_thread{0};
    parallel_for(
        0, kOuter, 1,
        [&](std::size_t o) {
          const std::thread::id outer = std::this_thread::get_id();
          parallel_for(
              0, kInner, 1,
              [&](std::size_t i) {
                if (std::this_thread::get_id() != outer) off_thread.fetch_add(1);
                std::this_thread::sleep_for(std::chrono::microseconds(200));
                out[o * kInner + i] = (o * 1000003u) ^ (i * 7919u);
              },
              threads);
        },
        threads);
    EXPECT_EQ(off_thread.load(), 0) << "threads=" << threads;
    EXPECT_EQ(detail::region_depth, 0) << "threads=" << threads;
    return out;
  };
  EXPECT_EQ(run(1), run(4));
  // The depth unwinds when an outer body throws, too.
  EXPECT_THROW(parallel_for(
                   0, 8, 1, [](std::size_t) { throw std::runtime_error("outer"); }, 4),
               std::runtime_error);
  EXPECT_EQ(detail::region_depth, 0);
}

TEST(MpmcQueue, FifoSingleThread) {
  MpmcQueue<int> q(8);
  for (int i = 0; i < 5; ++i) {
    int v = i;
    EXPECT_TRUE(q.try_push(v));
  }
  EXPECT_EQ(q.size(), 5u);
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(MpmcQueue, TryPushFailsWhenFullAndLeavesItemIntact) {
  MpmcQueue<std::string> q(2);
  std::string a = "a", b = "b", c = "c";
  EXPECT_TRUE(q.try_push(a));
  EXPECT_TRUE(q.try_push(b));
  EXPECT_FALSE(q.try_push(c));
  EXPECT_EQ(c, "c");  // rejected item untouched, caller can still refuse it
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.high_water(), 2u);
}

TEST(MpmcQueue, NeverExceedsCapacityUnderConcurrentPressure) {
  MpmcQueue<int> q(4);
  std::atomic<int> produced{0};
  std::atomic<int> consumed{0};
  constexpr int kPerProducer = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p)
    producers.emplace_back([&q, &produced] {
      for (int i = 0; i < kPerProducer; ++i) {
        int v = i;
        if (q.push(v)) produced.fetch_add(1);
      }
    });
  std::vector<std::thread> consumers;
  for (int cth = 0; cth < 2; ++cth)
    consumers.emplace_back([&q, &consumed] {
      int out;
      while (q.pop(out)) consumed.fetch_add(1);
    });
  for (std::thread& t : producers) t.join();
  q.close();
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(produced.load(), 4 * kPerProducer);
  EXPECT_EQ(consumed.load(), 4 * kPerProducer);
  EXPECT_LE(q.high_water(), q.capacity());
}

TEST(MpmcQueue, CloseWakesBlockedPusherWithFailure) {
  MpmcQueue<int> q(1);
  int v = 1;
  ASSERT_TRUE(q.push(v));  // queue now full
  std::atomic<bool> push_result{true};
  std::thread blocked([&q, &push_result] {
    int w = 2;
    push_result.store(q.push(w));  // blocks on full queue until close()
  });
  q.close();
  blocked.join();
  EXPECT_FALSE(push_result.load());
  // The accepted item still drains; then pop reports closed-and-empty.
  int out;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_FALSE(q.pop(out));
}

TEST(MpmcQueue, PopWhileTakesOnlyMatchingPrefix) {
  MpmcQueue<int> q(16);
  for (int v : {2, 4, 6, 7, 8}) {
    int item = v;
    ASSERT_TRUE(q.try_push(item));
  }
  std::vector<int> batch;
  // Takes the even prefix and stops at 7 without skipping past it.
  const std::size_t taken =
      q.pop_while([](const int& v) { return v % 2 == 0; }, 8, batch);
  EXPECT_EQ(taken, 3u);
  EXPECT_EQ(batch, (std::vector<int>{2, 4, 6}));
  int out;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 7);  // FIFO preserved: nothing was popped out of order
  // `max` bounds the take even when more heads match.
  batch.clear();
  ASSERT_TRUE(q.pop(out));
  for (int v : {10, 12, 14}) {
    int item = v;
    ASSERT_TRUE(q.try_push(item));
  }
  EXPECT_EQ(q.pop_while([](const int&) { return true; }, 2, batch), 2u);
  EXPECT_EQ(batch, (std::vector<int>{10, 12}));
}

TEST(ParallelMap, ResultsAreInIndexOrder) {
  for (int threads : {1, 2, 8}) {
    const std::vector<std::size_t> out = parallel_map(
        10, 200, 3, [](std::size_t i) { return i * i; }, threads);
    ASSERT_EQ(out.size(), 190u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], (i + 10) * (i + 10));
  }
}

TEST(ParallelMap, EmptyRangeGivesEmptyVector) {
  const std::vector<int> out = parallel_map(3, 3, 1, [](std::size_t) { return 1; });
  EXPECT_TRUE(out.empty());
}

TEST(ResolveThreads, ZeroMeansDefaultPositiveIsExplicit) {
  EXPECT_EQ(resolve_threads(0), ThreadPool::default_threads());
  EXPECT_EQ(resolve_threads(3), 3u);
}

}  // namespace
}  // namespace dnj::runtime
