/**
 * @file
 * Tests for the worker pool backing the parallel NN kernel layer and
 * the tracker pool, and for parallelFor's sharding/determinism
 * contract (chunk coverage, degenerate ranges, nested calls,
 * exception propagation, shutdown robustness).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/parallel_for.hh"
#include "common/thread_pool.hh"

namespace {

using ad::parallelFor;
using ad::ThreadPool;

TEST(ThreadPool, RunsAllTasks)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { counter.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ZeroWorkersClampedToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 1u);
    std::atomic<int> counter{0};
    pool.submit([&counter] { counter.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, WaitIdleOnEmptyQueueReturns)
{
    ThreadPool pool(2);
    pool.waitIdle();
    SUCCEED();
}

TEST(ThreadPool, TasksCanSubmitFollowUps)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    pool.submit([&] {
        counter.fetch_add(1);
        pool.submit([&] { counter.fetch_add(10); });
    });
    // waitIdle must also cover the follow-up task queued from inside.
    pool.waitIdle();
    EXPECT_EQ(counter.load(), 11);
}

TEST(ThreadPool, ParallelSumMatchesSerial)
{
    ThreadPool pool(4);
    std::vector<long> partial(16, 0);
    for (int t = 0; t < 16; ++t) {
        pool.submit([&partial, t] {
            long s = 0;
            for (int i = t * 1000; i < (t + 1) * 1000; ++i)
                s += i;
            partial[t] = s;
        });
    }
    pool.waitIdle();
    long total = 0;
    for (long p : partial)
        total += p;
    EXPECT_EQ(total, 16000L * 15999 / 2);
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&counter] { counter.fetch_add(1); });
        pool.waitIdle();
    }
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, SubmitAfterShutdownIsRejected)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    EXPECT_TRUE(pool.submit([&counter] { counter.fetch_add(1); }));
    pool.shutdown();
    EXPECT_FALSE(pool.submit([&counter] { counter.fetch_add(100); }));
    EXPECT_EQ(counter.load(), 1); // accepted task ran, rejected didn't
}

TEST(ThreadPool, ShutdownIsIdempotent)
{
    ThreadPool pool(2);
    pool.shutdown();
    pool.shutdown();
    SUCCEED();
}

TEST(ThreadPool, ThrowingTaskDoesNotWedgeThePool)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    pool.submit([] { throw std::runtime_error("boom"); });
    pool.submit([&counter] { counter.fetch_add(1); });
    pool.submit([] { throw 42; }); // non-std exception
    pool.submit([&counter] { counter.fetch_add(1); });
    // waitIdle must return despite the throwing tasks (the worker
    // catches, counts and keeps its active bookkeeping intact).
    pool.waitIdle();
    EXPECT_EQ(counter.load(), 2);
    EXPECT_EQ(pool.failedTaskCount(), 2u);
}

TEST(ParallelFor, EmptyRangeRunsNothing)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    parallelFor(&pool, 5, 5, 1,
                [&](std::size_t, std::size_t) { calls.fetch_add(1); });
    parallelFor(&pool, 7, 3, 1,
                [&](std::size_t, std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, GrainLargerThanRangeRunsInline)
{
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    std::size_t seenLo = 99;
    std::size_t seenHi = 0;
    parallelFor(&pool, 2, 10, 100, [&](std::size_t lo, std::size_t hi) {
        calls.fetch_add(1);
        seenLo = lo;
        seenHi = hi;
    });
    EXPECT_EQ(calls.load(), 1); // one chunk -> caller executes inline
    EXPECT_EQ(seenLo, 2u);
    EXPECT_EQ(seenHi, 10u);
}

TEST(ParallelFor, ChunksCoverRangeExactlyOnce)
{
    ThreadPool pool(4);
    const std::size_t n = 1013; // prime: uneven split
    std::vector<std::atomic<int>> hits(n);
    parallelFor(&pool, 0, n, 10, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, ChunkBoundariesIndependentOfWorkerCount)
{
    // The determinism foundation: shard boundaries depend only on
    // (range, maxThreads), never on pool size or scheduling.
    const auto boundsWith = [](std::size_t workers) {
        ThreadPool pool(workers);
        std::mutex m;
        std::vector<std::pair<std::size_t, std::size_t>> chunks;
        parallelFor(
            &pool, 3, 100, 7,
            [&](std::size_t lo, std::size_t hi) {
                std::lock_guard<std::mutex> lock(m);
                chunks.emplace_back(lo, hi);
            },
            4);
        std::sort(chunks.begin(), chunks.end());
        return chunks;
    };
    EXPECT_EQ(boundsWith(1), boundsWith(8));
}

TEST(ParallelFor, NestedCallFromWorkerDoesNotDeadlock)
{
    ThreadPool pool(2);
    std::atomic<int> inner{0};
    // A body that itself calls parallelFor on the same pool must not
    // deadlock: the claim-based chunk table lets the worker-thread
    // caller run every chunk no other worker steals, so progress
    // never depends on a free worker existing.
    parallelFor(&pool, 0, 8, 1, [&](std::size_t lo, std::size_t hi) {
        parallelFor(&pool, lo, hi, 1,
                    [&](std::size_t l2, std::size_t h2) {
                        inner.fetch_add(static_cast<int>(h2 - l2));
                    });
    });
    EXPECT_EQ(inner.load(), 8);
}

TEST(ParallelFor, DeeplyNestedForksComplete)
{
    ThreadPool pool(2);
    std::atomic<int> leaves{0};
    parallelFor(&pool, 0, 4, 1, [&](std::size_t lo, std::size_t hi) {
        parallelFor(&pool, lo, hi, 1, [&](std::size_t l2, std::size_t h2) {
            parallelFor(&pool, l2, h2, 1,
                        [&](std::size_t l3, std::size_t h3) {
                            leaves.fetch_add(static_cast<int>(h3 - l3));
                        });
        });
    });
    EXPECT_EQ(leaves.load(), 4);
}

TEST(ParallelFor, NullPoolRunsSerially)
{
    int calls = 0;
    parallelFor(nullptr, 0, 100, 1, [&](std::size_t lo, std::size_t hi) {
        ++calls;
        EXPECT_EQ(lo, 0u);
        EXPECT_EQ(hi, 100u);
    });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesBodyException)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        parallelFor(&pool, 0, 100, 1,
                    [&](std::size_t lo, std::size_t) {
                        if (lo >= 50)
                            throw std::runtime_error("shard failed");
                    }),
        std::runtime_error);
    // The pool survives and keeps serving work afterwards.
    std::atomic<int> counter{0};
    parallelFor(&pool, 0, 4, 1, [&](std::size_t lo, std::size_t hi) {
        counter.fetch_add(static_cast<int>(hi - lo));
    });
    EXPECT_EQ(counter.load(), 4);
}

TEST(ParallelFor, ShuttingDownPoolFallsBackToInline)
{
    ThreadPool pool(2);
    pool.shutdown();
    std::vector<int> hits(64, 0);
    parallelFor(&pool, 0, 64, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            ++hits[i]; // no data race possible: everything is inline
    });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(ParallelFor, SharedWorkerPoolIsUsable)
{
    std::atomic<int> counter{0};
    parallelFor(&ad::sharedWorkerPool(), 0, 128, 4,
                [&](std::size_t lo, std::size_t hi) {
                    counter.fetch_add(static_cast<int>(hi - lo));
                });
    EXPECT_EQ(counter.load(), 128);
}

} // namespace
