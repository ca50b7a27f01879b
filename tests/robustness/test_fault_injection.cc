#include "stats/fault_injection.hh"

#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "stats/batch_driver.hh"
#include "support/error.hh"
#include "support/outcome.hh"

namespace ttmcas {
namespace {

FaultInjector
injector(double probability, std::uint64_t seed = 0xfa017ULL)
{
    FaultInjector::Options options;
    options.probability = probability;
    options.seed = seed;
    return FaultInjector(options);
}

TEST(FaultInjectorTest, DisarmedByDefaultAndAtZeroProbability)
{
    EXPECT_FALSE(FaultInjector().enabled());
    const FaultInjector off = injector(0.0);
    EXPECT_FALSE(off.enabled());
    for (std::size_t point = 0; point < 256; ++point)
        EXPECT_FALSE(off.armedAt(point));
    EXPECT_EQ(off.armedCount(256), 0u);
}

TEST(FaultInjectorTest, ProbabilityOneArmsEveryPoint)
{
    const FaultInjector on = injector(1.0);
    EXPECT_TRUE(on.enabled());
    for (std::size_t point = 0; point < 256; ++point)
        EXPECT_TRUE(on.armedAt(point));
    EXPECT_EQ(on.armedCount(256), 256u);
}

TEST(FaultInjectorTest, ArmingIsRandomAccessDeterministic)
{
    const FaultInjector a = injector(0.3);
    const FaultInjector b = injector(0.3);
    // Query b in reverse order: arming depends only on (seed, index),
    // never on query order — the property the parallel kernels rely on.
    std::vector<bool> forward, backward(512);
    for (std::size_t point = 0; point < 512; ++point)
        forward.push_back(a.armedAt(point));
    for (std::size_t point = 512; point-- > 0;)
        backward[point] = b.armedAt(point);
    EXPECT_EQ(forward, backward);
}

TEST(FaultInjectorTest, ArmedCountMatchesExplicitScan)
{
    const FaultInjector faults = injector(0.25);
    std::size_t scanned = 0;
    for (std::size_t point = 0; point < 1000; ++point)
        scanned += faults.armedAt(point) ? 1u : 0u;
    EXPECT_EQ(faults.armedCount(1000), scanned);
}

TEST(FaultInjectorTest, ArmedFractionTracksProbability)
{
    const FaultInjector faults = injector(0.3);
    const double fraction =
        static_cast<double>(faults.armedCount(20000)) / 20000.0;
    EXPECT_NEAR(fraction, 0.3, 0.02);
}

TEST(FaultInjectorTest, SeedSelectsTheArmedSet)
{
    const FaultInjector a = injector(0.5, 1);
    const FaultInjector b = injector(0.5, 2);
    std::size_t differences = 0;
    for (std::size_t point = 0; point < 512; ++point)
        differences += a.armedAt(point) != b.armedAt(point) ? 1u : 0u;
    EXPECT_GT(differences, 0u);
}

TEST(FaultInjectorTest, InvalidOptionsAreRejected)
{
    FaultInjector::Options options;
    options.probability = 1.5;
    EXPECT_THROW(FaultInjector{options}, ModelError);
    options.probability = -0.1;
    EXPECT_THROW(FaultInjector{options}, ModelError);
}

TEST(FaultInjectorTest, AllKindsOccurAcrossPoints)
{
    const FaultInjector on = injector(1.0);
    std::array<bool, 4> seen{};
    for (std::size_t point = 0; point < 256; ++point)
        seen[static_cast<std::size_t>(on.kindAt(point))] = true;
    for (const bool kind_seen : seen)
        EXPECT_TRUE(kind_seen);
}

TEST(FaultInjectorTest, FaultValueIsNonFiniteOrThrowsInjected)
{
    const FaultInjector on = injector(1.0);
    for (std::size_t point = 0; point < 64; ++point) {
        if (on.kindAt(point) == FaultInjector::FaultKind::Throw) {
            EXPECT_THROW(on.faultValue(point), NumericError);
        } else {
            EXPECT_FALSE(std::isfinite(on.faultValue(point)));
        }
    }
}

// ---------------------------------------------------------------- //
// The batch driver's scalar point guard (stats/batch_driver.hh)
// ---------------------------------------------------------------- //

/** A serial skip-and-record control, optionally with an injector. */
BatchControl
skipControl(const FaultInjector* faults, FailureReport* report)
{
    BatchControl control;
    control.parallel = ParallelConfig::serial();
    control.failure_policy = FailurePolicy::skipAndRecord();
    control.fault_injector = faults;
    control.failure_report = report;
    return control;
}

/** A driver kernel of @p n points evaluating @p fn. */
PointKernel<double>
kernelOf(std::size_t n, std::function<double(std::size_t)> fn,
         DiagCode nonfinite = DiagCode::NonFiniteOutput)
{
    PointKernel<double> kernel;
    kernel.name = "kernel";
    kernel.count = n;
    kernel.nonfinite = nonfinite;
    kernel.point = std::move(fn);
    return kernel;
}

TEST(BatchDriverTest, CleanEvaluationPassesThrough)
{
    const PointBatch<double> batch = runPoints(
        skipControl(nullptr, nullptr),
        kernelOf(1, [](std::size_t) { return 2.5; }));
    ASSERT_TRUE(batch.done(0));
    EXPECT_DOUBLE_EQ(batch.values[0], 2.5);
}

TEST(BatchDriverTest, EvaluatesEachPointExactlyOnce)
{
    std::vector<int> calls(16, 0);
    const PointBatch<double> batch = runPoints(
        skipControl(nullptr, nullptr),
        kernelOf(16, [&](std::size_t i) {
            ++calls[i];
            return static_cast<double>(i);
        }));
    for (std::size_t i = 0; i < calls.size(); ++i) {
        EXPECT_EQ(calls[i], 1) << "point " << i;
        EXPECT_TRUE(batch.done(i));
    }
}

TEST(BatchDriverTest, NonFiniteResultBecomesTaggedDiagnostic)
{
    FailureReport report;
    const PointBatch<double> batch = runPoints(
        skipControl(nullptr, &report),
        kernelOf(
            10,
            [](std::size_t i) {
                return i == 9 ? std::numeric_limits<double>::quiet_NaN()
                              : 1.0;
            },
            DiagCode::NonFiniteCas));
    EXPECT_FALSE(batch.done(9));
    ASSERT_EQ(report.failureCount(), 1u);
    EXPECT_EQ(report.detailed()[0].code, DiagCode::NonFiniteCas);
    EXPECT_EQ(report.detailed()[0].point_index, 9u);
}

TEST(BatchDriverTest, EveryInjectedFaultLandsInTheReport)
{
    const FaultInjector on = injector(1.0);
    FailureReport report;
    std::size_t calls = 0;
    const PointBatch<double> batch = runPoints(
        skipControl(&on, &report), kernelOf(64, [&](std::size_t) {
            ++calls;
            return 1.0;
        }));
    // Armed points are never evaluated.
    EXPECT_EQ(calls, 0u);
    ASSERT_EQ(report.failureCount(), 64u);
    for (std::size_t point = 0; point < 64; ++point) {
        EXPECT_FALSE(batch.done(point));
        const Diagnostic& diagnostic = batch.failures.diagnostics[point];
        EXPECT_EQ(diagnostic.point_index, point);
        // NaN/Inf faults trip the boundary guard; Throw faults carry
        // the injection code directly.
        const DiagCode expected =
            on.kindAt(point) == FaultInjector::FaultKind::Throw
                ? DiagCode::InjectedFault
                : DiagCode::NonFiniteOutput;
        EXPECT_EQ(diagnostic.code, expected) << "point " << point;
    }
}

TEST(BatchDriverTest, UnarmedPointsAreUntouched)
{
    const FaultInjector some = injector(0.4);
    FailureReport report;
    const PointBatch<double> batch = runPoints(
        skipControl(&some, &report), kernelOf(64, [](std::size_t i) {
            return static_cast<double>(i);
        }));
    EXPECT_EQ(report.failureCount(), some.armedCount(64));
    for (std::size_t point = 0; point < 64; ++point) {
        if (some.armedAt(point)) {
            EXPECT_FALSE(batch.done(point));
        } else {
            ASSERT_TRUE(batch.done(point));
            EXPECT_DOUBLE_EQ(batch.values[point],
                             static_cast<double>(point));
        }
    }
}

} // namespace
} // namespace ttmcas
