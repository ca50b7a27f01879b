/**
 * @file
 * CancellationToken / ScopedSigintCancel unit contract: relaxed-atomic
 * stop flags, latched wall-clock deadlines, structured stop
 * diagnostics, the batch driver's stop post-pass, and cooperative
 * chunk claiming inside ThreadPool::parallelFor.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "stats/batch_driver.hh"
#include "support/cancel.hh"
#include "support/error.hh"
#include "support/threadpool.hh"

namespace ttmcas {
namespace {

TEST(CancellationToken, StartsClean)
{
    const CancellationToken token;
    EXPECT_FALSE(token.cancelRequested());
    EXPECT_FALSE(token.hasDeadline());
    EXPECT_FALSE(token.deadlineExpired());
    EXPECT_FALSE(token.stopRequested());
}

TEST(CancellationToken, ExplicitCancelFiresAndIsIdempotent)
{
    CancellationToken token;
    token.requestCancel();
    token.requestCancel();
    EXPECT_TRUE(token.cancelRequested());
    EXPECT_TRUE(token.stopRequested());
    EXPECT_EQ(token.stopCode(), DiagCode::Cancelled);
}

TEST(CancellationToken, PastDeadlineExpires)
{
    CancellationToken token;
    token.setDeadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
    EXPECT_TRUE(token.hasDeadline());
    EXPECT_TRUE(token.deadlineExpired());
    EXPECT_TRUE(token.stopRequested());
    EXPECT_EQ(token.stopCode(), DiagCode::DeadlineExceeded);
}

TEST(CancellationToken, FutureDeadlineDoesNotFireEarly)
{
    CancellationToken token;
    token.setDeadlineAfter(3600.0);
    EXPECT_TRUE(token.hasDeadline());
    EXPECT_FALSE(token.deadlineExpired());
    EXPECT_FALSE(token.stopRequested());
}

TEST(CancellationToken, NegativeDeadlineIsRejected)
{
    CancellationToken token;
    EXPECT_THROW(token.setDeadlineAfter(-1.0), ModelError);
}

TEST(CancellationToken, ExpiredDeadlineLatches)
{
    CancellationToken token;
    token.setDeadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
    ASSERT_TRUE(token.deadlineExpired());
    // Re-arming further in the future does not un-expire the token:
    // kernels rely on stopRequested() never flipping back to false
    // mid-run.
    token.setDeadline(std::chrono::steady_clock::now() +
                      std::chrono::hours(1));
    EXPECT_TRUE(token.deadlineExpired());
}

TEST(CancellationToken, ExplicitCancelWinsTheStopCodeRace)
{
    CancellationToken token;
    token.setDeadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
    token.requestCancel();
    EXPECT_EQ(token.stopCode(), DiagCode::Cancelled);
}

TEST(CancellationToken, StopDiagnosticIsStructured)
{
    CancellationToken token;
    token.requestCancel();
    const Diagnostic diagnostic = token.stopDiagnostic(17, "testKernel");
    EXPECT_EQ(diagnostic.code, DiagCode::Cancelled);
    EXPECT_EQ(diagnostic.point_index, 17u);
    EXPECT_NE(diagnostic.message.find("testKernel"), std::string::npos);
}

TEST(CancellationToken, ResetDisarmsEverything)
{
    CancellationToken token;
    token.requestCancel();
    token.setDeadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
    ASSERT_TRUE(token.stopRequested());
    token.reset();
    EXPECT_FALSE(token.cancelRequested());
    EXPECT_FALSE(token.hasDeadline());
    EXPECT_FALSE(token.deadlineExpired());
    EXPECT_FALSE(token.stopRequested());
}

TEST(BatchDriverCancel, MarksOnlyNeverEvaluatedPoints)
{
    // Serial, one point per chunk: the stop requested while point 1
    // evaluates lands before point 2's chunk is claimed.
    CancellationToken token;
    BatchControl control;
    control.parallel = ParallelConfig{1, 1};
    control.failure_policy = FailurePolicy::skipAndRecord();
    control.cancel = &token;
    FailureReport report;
    control.failure_report = &report;
    PointKernel<double> kernel;
    kernel.name = "testKernel";
    kernel.count = 4;
    kernel.point = [&](std::size_t i) {
        if (i == 0)
            return 1.5;
        token.requestCancel();
        return std::numeric_limits<double>::quiet_NaN(); // real failure
    };

    const PointBatch<double> batch = runPoints(control, kernel);

    EXPECT_TRUE(batch.done(0));
    EXPECT_EQ(report.failureCount(), 3u);
    EXPECT_EQ(report.count(DiagCode::NonFiniteOutput), 1u);
    EXPECT_EQ(report.count(DiagCode::Cancelled), 2u);
    const std::vector<Diagnostic>& failures = batch.failures.diagnostics;
    ASSERT_EQ(failures.size(), 3u);
    EXPECT_EQ(failures[0].code, DiagCode::NonFiniteOutput);
    EXPECT_EQ(failures[0].point_index, 1u);
    EXPECT_EQ(failures[1].code, DiagCode::Cancelled);
    EXPECT_EQ(failures[1].point_index, 2u);
    EXPECT_EQ(failures[2].code, DiagCode::Cancelled);
    EXPECT_EQ(failures[2].point_index, 3u);
}

TEST(ParallelForCancel, PreCancelledTokenRunsNoChunk)
{
    CancellationToken token;
    token.requestCancel();
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        ParallelConfig parallel;
        parallel.threads = threads;
        parallel.grain = 1;
        std::atomic<std::size_t> calls{0};
        parallelFor(
            parallel, 64,
            [&](std::size_t, std::size_t) { calls.fetch_add(1); },
            &token);
        EXPECT_EQ(calls.load(), 0u) << "threads=" << threads;
    }
}

TEST(ParallelForCancel, MidRunCancelStopsClaimingChunks)
{
    CancellationToken token;
    ParallelConfig parallel;
    parallel.threads = 2;
    parallel.grain = 1;
    std::atomic<std::size_t> calls{0};
    parallelFor(
        parallel, 1024,
        [&](std::size_t, std::size_t) {
            if (calls.fetch_add(1) + 1 >= 8)
                token.requestCancel();
        },
        &token);
    EXPECT_GE(calls.load(), 8u);
    EXPECT_LT(calls.load(), 1024u);
}

TEST(ParallelForCancel, NullTokenIsTheLegacyFastPath)
{
    ParallelConfig parallel;
    parallel.threads = 2;
    parallel.grain = 4;
    std::atomic<std::size_t> items{0};
    parallelFor(parallel, 100,
                [&](std::size_t begin, std::size_t end) {
                    items.fetch_add(end - begin);
                });
    EXPECT_EQ(items.load(), 100u);
}

TEST(ScopedSigintCancel, RoutesSigintToTheToken)
{
    CancellationToken token;
    {
        const ScopedSigintCancel guard(token);
        EXPECT_FALSE(token.cancelRequested());
        std::raise(SIGINT);
        EXPECT_TRUE(token.cancelRequested());
    }
    // After the guard is gone the token no longer observes signals
    // (we cannot safely raise SIGINT here: the default disposition
    // would kill the test binary).
}

TEST(ScopedSigintCancel, RoutesSigtermToTheToken)
{
    // Daemon supervisors (systemd, Kubernetes, ttm_serve's own drain
    // contract) send SIGTERM first; the guard must latch it exactly
    // like SIGINT so a supervised run drains instead of dying.
    CancellationToken token;
    {
        const ScopedSigintCancel guard(token);
        EXPECT_FALSE(token.cancelRequested());
        std::raise(SIGTERM);
        EXPECT_TRUE(token.cancelRequested());
    }
}

TEST(ScopedSigintCancel, BothSignalsLatchTheSameToken)
{
    CancellationToken token;
    const ScopedSigintCancel guard(token);
    std::raise(SIGINT);
    EXPECT_TRUE(token.cancelRequested());
    // A follow-up SIGTERM (supervisor escalation) stays a no-op latch,
    // not a crash: the handler is still installed and idempotent.
    std::raise(SIGTERM);
    EXPECT_TRUE(token.cancelRequested());
    EXPECT_EQ(token.stopCode(), DiagCode::Cancelled);
}

TEST(ScopedSigintCancel, HandlersAreRestoredAfterScope)
{
    // Install our own markers, wrap a guard scope around them, and
    // check both dispositions come back — the destructor must restore
    // SIGTERM as well as SIGINT.
    static std::atomic<int> hits{0};
    const auto marker = [](int) { hits.fetch_add(1); };
    void (*prev_int)(int) = std::signal(SIGINT, marker);
    void (*prev_term)(int) = std::signal(SIGTERM, marker);
    ASSERT_NE(prev_int, SIG_ERR);
    ASSERT_NE(prev_term, SIG_ERR);
    {
        CancellationToken token;
        const ScopedSigintCancel guard(token);
        std::raise(SIGTERM);
        EXPECT_TRUE(token.cancelRequested());
        EXPECT_EQ(hits.load(), 0);
    }
    std::raise(SIGINT);
    std::raise(SIGTERM);
    EXPECT_EQ(hits.load(), 2);
    std::signal(SIGINT, prev_int);
    std::signal(SIGTERM, prev_term);
}

TEST(ScopedSigintCancel, SecondConcurrentInstanceIsRejected)
{
    CancellationToken first;
    CancellationToken second;
    const ScopedSigintCancel guard(first);
    EXPECT_THROW(ScopedSigintCancel another(second), ModelError);
}

} // namespace
} // namespace ttmcas
