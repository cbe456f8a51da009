/**
 * @file
 * Direct unit coverage for util::ThreadPool: parallelFor boundary
 * cases, one-at-a-time item claiming under uneven item costs,
 * exception propagation out of submitted tasks, the nested-use
 * deadlock guard, global-pool resizing, and a contention stress test
 * sized so TSan has real interleavings to chew on.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.hh"

namespace socflow {
namespace {

TEST(ThreadPool, ParallelForZeroIterationsIsNoop)
{
    ThreadPool pool(4);
    pool.parallelFor(0, [](std::size_t) { FAIL() << "fn called for n=0"; });
}

TEST(ThreadPool, ParallelForFewerItemsThanThreads)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    pool.parallelFor(3, [&](std::size_t i) { ++hits[i]; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForManyMoreItemsThanThreads)
{
    ThreadPool pool(2);
    constexpr std::size_t n = 10000;
    std::vector<std::uint8_t> hits(n, 0);
    // Disjoint writes per index: each i touched exactly once.
    pool.parallelFor(n, [&](std::size_t i) { ++hits[i]; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), std::size_t{0}), n);
}

TEST(ThreadPool, ParallelForSingleItemRunsInline)
{
    ThreadPool pool(4);
    std::thread::id ran_on;
    pool.parallelFor(1, [&](std::size_t) { ran_on = std::this_thread::get_id(); });
    EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, ParallelForClaimsItemsOneAtATime)
{
    // Item 0 holds its worker until every other item has finished.
    // Under contiguous blocks items 1..3 would queue behind it on the
    // same worker and never finish; claimed one at a time, the other
    // workers drain them. The deadline only bounds a failing run.
    ThreadPool pool(4);
    constexpr std::size_t n = 16;
    std::vector<std::atomic<int>> hits(n);
    std::atomic<std::size_t> done{0};
    bool othersFinished = false;
    pool.parallelFor(n, [&](std::size_t i) {
        ++hits[i];
        if (i == 0) {
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(20);
            while (done.load() < n - 1 &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
            othersFinished = done.load() == n - 1;
        } else {
            ++done;
        }
    });
    EXPECT_TRUE(othersFinished);
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1); // every item exactly once
}

TEST(ThreadPool, UnevenItemsRunExactlyOnce)
{
    // Costs vary 1..40 units by item: claims interleave across workers
    // in a run-dependent order, but each item still runs once.
    ThreadPool pool(3);
    for (std::size_t n : {2u, 5u, 64u, 257u}) {
        std::vector<std::atomic<int>> hits(n);
        pool.parallelFor(n, [&](std::size_t i) {
            volatile std::uint64_t sink = 0;
            for (std::size_t k = 0; k < 1000 * (1 + (i * 7919) % 40); ++k)
                sink = sink + k;
            ++hits[i];
        });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " item " << i;
    }
}

TEST(ThreadPool, FirstExceptionWinsUnderUnevenItems)
{
    // Item 1 throws at once; item 6 throws only well after that, once
    // item 1's exception has been captured. The first one surfaces.
    ThreadPool pool(4);
    std::atomic<bool> firstThrown{false};
    try {
        pool.parallelFor(8, [&](std::size_t i) {
            if (i == 1) {
                firstThrown = true;
                throw std::runtime_error("first");
            }
            if (i == 6) {
                while (!firstThrown.load())
                    std::this_thread::yield();
                std::this_thread::sleep_for(std::chrono::milliseconds(100));
                throw std::logic_error("second");
            }
        });
        FAIL() << "expected throw";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "first");
    } catch (const std::logic_error &e) {
        FAIL() << "a later exception won: " << e.what();
    }
}

TEST(ThreadPool, SubmitExceptionPropagatesFromWait)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The error is consumed: a later clean batch waits cleanly.
    std::atomic<int> ok{0};
    pool.submit([&] { ++ok; });
    pool.wait();
    EXPECT_EQ(ok.load(), 1);
}

TEST(ThreadPool, ParallelForExceptionPropagates)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(64,
                                  [](std::size_t i) {
                                      if (i == 17)
                                          throw std::runtime_error("item 17");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, FirstExceptionWinsOthersSwallowed)
{
    ThreadPool pool(4);
    try {
        pool.parallelFor(32, [](std::size_t i) {
            throw std::invalid_argument(std::to_string(i));
        });
        FAIL() << "expected throw";
    } catch (const std::invalid_argument &) {
        // Exactly one of the 32 exceptions surfaces; pool stays usable.
    }
    std::atomic<int> ok{0};
    pool.parallelFor(8, [&](std::size_t) { ++ok; });
    EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPool, NestedParallelForRunsInlineNoDeadlock)
{
    ThreadPool pool(2);
    std::atomic<int> inner_total{0};
    std::atomic<int> inner_on_worker{0};
    pool.parallelFor(4, [&](std::size_t) {
        EXPECT_TRUE(ThreadPool::inWorkerThread());
        // Without the guard this re-entrant dispatch deadlocks: the
        // worker would block in wait() on its own queue slot.
        pool.parallelFor(8, [&](std::size_t) {
            ++inner_total;
            if (ThreadPool::inWorkerThread())
                ++inner_on_worker;
        });
    });
    EXPECT_EQ(inner_total.load(), 32);
    EXPECT_EQ(inner_on_worker.load(), 32); // inline on the same worker
}

TEST(ThreadPool, NestedCallRunsInlineOnTheClaimingWorker)
{
    // Uneven outer items, each with a nested fan-out: every inner item
    // runs inline, in order, on the worker that claimed the outer one.
    ThreadPool pool(3);
    constexpr std::size_t n = 9;
    std::vector<int> sameThread(n, 0), inOrder(n, 0);
    pool.parallelFor(n, [&](std::size_t i) {
        const auto me = std::this_thread::get_id();
        std::size_t expect = 0;
        bool same = true, ordered = true;
        pool.parallelFor(4 + i, [&](std::size_t j) {
            same = same && std::this_thread::get_id() == me;
            ordered = ordered && j == expect++;
        });
        sameThread[i] = same && expect == 4 + i;
        inOrder[i] = ordered;
    });
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(sameThread[i]) << "outer item " << i;
        EXPECT_TRUE(inOrder[i]) << "outer item " << i;
    }
}

TEST(ThreadPool, InWorkerThreadFalseOnCaller)
{
    EXPECT_FALSE(ThreadPool::inWorkerThread());
}

TEST(ThreadPool, GlobalPoolResize)
{
    setGlobalThreads(3);
    EXPECT_EQ(globalThreads(), 3u);
    EXPECT_EQ(globalThreadPool().size(), 3u);
    setGlobalThreads(1);
    EXPECT_EQ(globalThreadPool().size(), 1u);
    setGlobalThreads(0); // back to default
    EXPECT_GE(globalThreads(), 1u);
}

TEST(ThreadPool, StressContendedCountersAndQueues)
{
    // Many small batches with shared atomics: exercises the queue
    // mutex, condvars, and the inFlight counter under contention so
    // -DSANITIZE=thread sees real interleavings.
    ThreadPool pool(8);
    std::atomic<std::uint64_t> sum{0};
    for (int round = 0; round < 50; ++round) {
        pool.parallelFor(64, [&](std::size_t i) {
            sum.fetch_add(i + 1, std::memory_order_relaxed);
        });
        for (int s = 0; s < 16; ++s)
            pool.submit([&] { sum.fetch_add(1, std::memory_order_relaxed); });
        pool.wait();
    }
    // 50 * (sum 1..64 = 2080) + 50 * 16
    EXPECT_EQ(sum.load(), 50u * 2080u + 50u * 16u);
}

} // namespace
} // namespace socflow
