#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace lls {
namespace {

TEST(ThreadPool, WorkersSurviveThrowingTasks) {
    // With a single worker, a throwing body that escaped the worker loop
    // would kill the only thread. Throw a burst of ranges, then prove the
    // same worker still runs work: two indices that wait for each other can
    // only both finish when the worker takes one while the caller holds the
    // other.
    ThreadPool pool(1);
    for (int i = 0; i < 8; ++i)
        EXPECT_THROW(pool.parallel_for(0, 4, [](std::size_t) { throw std::runtime_error("boom"); }),
                     std::runtime_error);

    std::atomic<int> started{0};
    std::atomic<bool> met{true};
    pool.parallel_for(0, 2, [&](std::size_t) {
        started.fetch_add(1);
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (started.load() < 2)
            if (std::chrono::steady_clock::now() > deadline) {
                met.store(false);
                return;
            }
    });
    EXPECT_TRUE(met.load()) << "worker died after a throwing task";
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    constexpr std::size_t kN = 10000;
    std::vector<std::atomic<int>> touched(kN);
    pool.parallel_for(0, kN, [&](std::size_t i) { touched[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(touched[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForEmptyAndReversedRanges) {
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallel_for(5, 5, [&](std::size_t) { calls.fetch_add(1); });
    pool.parallel_for(7, 3, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ParallelForRethrowsFirstException) {
    ThreadPool pool(4);
    std::atomic<int> completed{0};
    EXPECT_THROW(pool.parallel_for(0, 1000,
                                   [&](std::size_t i) {
                                       if (i == 17) throw std::logic_error("bad index");
                                       completed.fetch_add(1);
                                   }),
                 std::logic_error);
    EXPECT_LT(completed.load(), 1000);

    // The abort is local to its range: the pool runs a clean one in full.
    std::atomic<int> after{0};
    pool.parallel_for(0, 100, [&](std::size_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 100);
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline) {
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 0u);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int> out(64, 0);
    pool.parallel_for(0, out.size(), [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        out[i] = static_cast<int>(i);
    });
    std::vector<int> expected(64);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(out, expected);
}

TEST(ThreadPool, UnevenTaskCostsStillComplete) {
    ThreadPool pool(3);
    std::atomic<long> sum{0};
    pool.parallel_for(0, 200, [&](std::size_t i) {
        long local = 0;
        // index-dependent busywork so workers finish at different times
        for (std::size_t k = 0; k < (i % 7) * 1000; ++k) local += static_cast<long>(k % 3);
        sum.fetch_add(static_cast<long>(i) + (local & 1));
    });
    EXPECT_GE(sum.load(), 199L * 200L / 2);
}

TEST(ThreadPool, HardwareJobsIsPositive) { EXPECT_GE(ThreadPool::hardware_jobs(), 1u); }

TEST(ThreadPool, NestedParallelForTwoDeepFromEveryWorker) {
    // Regression test for the nested-parallel_for deadlock: before the
    // help-while-waiting fix, a parallel_for called from a pool task
    // submitted helpers to a queue whose workers were all blocked in
    // h.get() on those same helpers — no worker was ever free to drain
    // them. Nest two deep with more outer indices than threads so every
    // worker is guaranteed to issue nested calls concurrently.
    ThreadPool pool(4);
    constexpr std::size_t kOuter = 12, kMid = 8, kInner = 6;
    std::atomic<std::size_t> leaves{0};
    pool.parallel_for(0, kOuter, [&](std::size_t) {
        pool.parallel_for(0, kMid, [&](std::size_t) {
            pool.parallel_for(0, kInner, [&](std::size_t) {
                leaves.fetch_add(1, std::memory_order_relaxed);
            });
        });
    });
    EXPECT_EQ(leaves.load(), kOuter * kMid * kInner);
}

TEST(ThreadPool, NestedParallelForSingleWorker) {
    // The smallest pool that could deadlock: one worker, whose task nests.
    ThreadPool pool(1);
    std::atomic<int> leaves{0};
    pool.parallel_for(0, 4, [&](std::size_t) {
        pool.parallel_for(0, 4, [&](std::size_t) { leaves.fetch_add(1); });
    });
    EXPECT_EQ(leaves.load(), 16);
}

TEST(ThreadPool, NestedParallelForPropagatesInnerExceptions) {
    ThreadPool pool(3);
    std::atomic<int> outer_failures{0};
    pool.parallel_for(0, 6, [&](std::size_t) {
        try {
            pool.parallel_for(0, 8, [&](std::size_t j) {
                if (j == 3) throw std::runtime_error("inner");
            });
        } catch (const std::runtime_error&) {
            outer_failures.fetch_add(1);
        }
    });
    EXPECT_EQ(outer_failures.load(), 6);
}

}  // namespace
}  // namespace lls
