#include "support/threadpool.hh"

#include <algorithm>
#include <atomic>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/error.hh"
#include "support/metrics.hh"

namespace ttmcas {
namespace {

std::size_t
cores()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/** pool.threads_started now (0 while no pool has registered it). */
std::uint64_t
threadsStarted()
{
    for (const auto& counter : obs::snapshotMetrics().counters) {
        if (counter.name == "pool.threads_started")
            return counter.value;
    }
    return 0;
}

TEST(ParallelConfigTest, ResolvesZeroToHardwareConcurrency)
{
    ParallelConfig config;
    EXPECT_EQ(config.resolvedThreads(), cores());

    // A call never runs more threads than the process-wide pool holds.
    config.threads = 3;
    EXPECT_EQ(config.resolvedThreads(), std::min<std::size_t>(3, cores()));
    EXPECT_EQ(config.isSerial(), cores() == 1);
    config.threads = cores() + 5;
    EXPECT_EQ(config.resolvedThreads(), cores());

    EXPECT_EQ(ParallelConfig::serial().resolvedThreads(), 1u);
    EXPECT_TRUE(ParallelConfig::serial().isSerial());
}

TEST(ThreadPoolTest, StartsAndJoinsRequestedWorkerCount)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    // Destructor joins cleanly with an empty queue.
}

TEST(ThreadPoolTest, CountsEveryWorkerItStarts)
{
    obs::setMetricsEnabled(true);
    const std::uint64_t before = threadsStarted();
    {
        ThreadPool pool(3);
    }
    EXPECT_EQ(threadsStarted(), before + 3);
    obs::setMetricsEnabled(false);
}

TEST(ThreadPoolTest, RejectsZeroWorkers)
{
    EXPECT_THROW(ThreadPool(0), ModelError);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, DrainsQueueOnDestruction)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { ++count; });
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, WaitRethrowsFirstTaskException)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.submit([] { throw ModelError("boom"); });
    pool.submit([&count] { ++count; });
    EXPECT_THROW(pool.wait(), ModelError);
    // The pool survives a failed batch and keeps accepting work.
    pool.submit([&count] { ++count; });
    EXPECT_NO_THROW(pool.wait());
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolTest, NestedSubmitIsSafeAndAwaited)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&pool, &count] {
            pool.submit([&count] { ++count; });
        });
    }
    // wait() covers tasks submitted by tasks: pending only reaches
    // zero once every nested task has also finished.
    pool.wait();
    EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<int> visits(1000, 0);
    pool.parallelFor(visits.size(), 7,
                     [&](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i)
                             ++visits[i];
                     });
    for (int v : visits)
        EXPECT_EQ(v, 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesBodyException)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(100, 1,
                         [](std::size_t begin, std::size_t) {
                             if (begin == 42)
                                 throw ModelError("bad chunk");
                         }),
        ModelError);
}

TEST(ParallelForTest, SerialConfigRunsInline)
{
    std::vector<int> visits(64, 0);
    parallelFor(ParallelConfig::serial(), visits.size(),
                [&](std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i)
                        ++visits[i];
                });
    for (int v : visits)
        EXPECT_EQ(v, 1);
}

TEST(ParallelForTest, EmptyRangeIsANoOp)
{
    bool called = false;
    parallelFor(ParallelConfig{8, 4}, 0,
                [&](std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ParallelForTest, ManyThreadsSmallRangeStillCoversOnce)
{
    // More threads than chunks: the pool is capped, nothing is lost.
    std::vector<int> visits(3, 0);
    parallelFor(ParallelConfig{16, 1}, visits.size(),
                [&](std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i)
                        ++visits[i];
                });
    EXPECT_EQ(visits, (std::vector<int>{1, 1, 1}));
}

TEST(ParallelMapTest, MatchesSerialEvaluation)
{
    const auto square = [](std::size_t i) {
        return static_cast<double>(i) * static_cast<double>(i);
    };
    const std::vector<double> parallel_out =
        parallelMap<double>(ParallelConfig{8, 3}, 257, square);
    const std::vector<double> serial_out =
        parallelMap<double>(ParallelConfig::serial(), 257, square);
    ASSERT_EQ(parallel_out.size(), 257u);
    EXPECT_EQ(parallel_out, serial_out);
}

TEST(ParallelForTest, PropagatesLowestChunkIndexException)
{
    // Two chunks fail with distinct messages; whichever thread finishes
    // first, the lowest-index chunk's exception must win — that is what
    // makes parallel failure deterministic and serial-identical.
    const auto body = [](std::size_t begin, std::size_t) {
        if (begin == 2)
            throw ModelError("failure at chunk 2");
        if (begin == 10)
            throw ModelError("failure at chunk 10");
    };
    for (int repeat = 0; repeat < 20; ++repeat) {
        try {
            parallelFor(ParallelConfig{8, 1}, 64, body);
            FAIL() << "parallelFor did not propagate the exception";
        } catch (const ModelError& error) {
            EXPECT_NE(std::string(error.what()).find("chunk 2"),
                      std::string::npos)
                << "got: " << error.what();
        }
    }
    // A serial chunk-by-chunk walk agrees: it hits chunk 2 first by
    // construction, so the parallel winner is exactly the serial one.
    try {
        for (std::size_t begin = 0; begin < 64; ++begin)
            body(begin, begin + 1);
        FAIL() << "serial walk did not throw";
    } catch (const ModelError& error) {
        EXPECT_NE(std::string(error.what()).find("chunk 2"),
                  std::string::npos);
    }
}

TEST(ParallelForTest, AllChunksFailingPropagatesChunkZero)
{
    try {
        parallelFor(ParallelConfig{8, 1}, 32,
                    [](std::size_t begin, std::size_t) {
                        throw ModelError("failure at chunk " +
                                         std::to_string(begin));
                    });
        FAIL() << "parallelFor did not propagate the exception";
    } catch (const ModelError& error) {
        EXPECT_NE(std::string(error.what()).find("chunk 0"),
                  std::string::npos)
            << "got: " << error.what();
    }
}

TEST(ParallelMapTest, PropagatesException)
{
    EXPECT_THROW(parallelMap<int>(ParallelConfig{4, 1}, 32,
                                  [](std::size_t i) -> int {
                                      if (i == 7)
                                          throw ModelError("bad item");
                                      return static_cast<int>(i);
                                  }),
                 ModelError);
}

TEST(ProcessPoolTest, LaterCallsStartNoThread)
{
    obs::setMetricsEnabled(true);
    const std::uint64_t before = threadsStarted();
    std::vector<int> visits(64, 0);
    const auto body = [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            ++visits[i];
    };
    // The first parallel call builds the pool (unless an earlier test
    // in this process did): at most one worker per core but the
    // caller's.
    parallelFor(ParallelConfig{0, 1}, visits.size(), body);
    const std::uint64_t after_first = threadsStarted();
    EXPECT_LE(after_first - before, cores() - 1);
    for (int call = 0; call < 50; ++call)
        parallelFor(ParallelConfig{0, 1}, visits.size(), body);
    EXPECT_EQ(threadsStarted(), after_first);
    for (int v : visits)
        EXPECT_EQ(v, 51);
    obs::setMetricsEnabled(false);
}

TEST(ProcessPoolTest, NestedParallelForRunsInlineAndCoversOnce)
{
    constexpr std::size_t kOuter = 16;
    constexpr std::size_t kInner = 100;
    std::vector<int> visits(kOuter * kInner, 0);
    parallelFor(ParallelConfig{0, 1}, kOuter,
                [&](std::size_t begin, std::size_t end) {
                    for (std::size_t o = begin; o < end; ++o) {
                        parallelFor(ParallelConfig{0, 7}, kInner,
                                    [&](std::size_t b, std::size_t e) {
                                        for (std::size_t i = b; i < e; ++i)
                                            ++visits[o * kInner + i];
                                    });
                    }
                });
    for (int v : visits)
        EXPECT_EQ(v, 1);
}

TEST(ProcessPoolTest, ConcurrentCallsEachRethrowTheirOwnLowestChunk)
{
    // Two application threads share the pool at once; each call must
    // see exactly its own lowest failing chunk, never the other's.
    const auto failingBody = [](const std::string& who, std::size_t low,
                                std::size_t high) {
        return [who, low, high](std::size_t begin, std::size_t) {
            volatile double spin = 0.0;
            for (int i = 0; i < 2000; ++i)
                spin = spin + i;
            if (begin == low || begin == high)
                throw ModelError(who + " chunk " + std::to_string(begin));
        };
    };
    for (int repeat = 0; repeat < 20; ++repeat) {
        std::latch start(2);
        std::string caught[2];
        const auto call = [&](int slot, const std::string& who,
                              std::size_t low, std::size_t high) {
            start.arrive_and_wait();
            try {
                parallelFor(ParallelConfig{0, 1}, 64,
                            failingBody(who, low, high));
                caught[slot] = "no exception";
            } catch (const ModelError& error) {
                caught[slot] = error.what();
            }
        };
        std::thread first(call, 0, "A", 3, 9);
        std::thread second(call, 1, "B", 5, 12);
        first.join();
        second.join();
        EXPECT_NE(caught[0].find("A chunk 3"), std::string::npos)
            << "got: " << caught[0];
        EXPECT_NE(caught[1].find("B chunk 5"), std::string::npos)
            << "got: " << caught[1];
    }
}

} // namespace
} // namespace ttmcas
