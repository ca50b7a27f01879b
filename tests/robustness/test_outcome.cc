#include "support/outcome.hh"

#include <cmath>
#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "support/error.hh"

namespace ttmcas {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(DiagnosticTest, CodeNamesAreStable)
{
    EXPECT_STREQ(diagCodeName(DiagCode::InvalidInput), "invalid-input");
    EXPECT_STREQ(diagCodeName(DiagCode::InjectedFault), "injected-fault");
    EXPECT_STREQ(diagCodeName(DiagCode::Unknown), "unknown");
}

TEST(DiagnosticTest, DescribeIncludesCodePointAndMessage)
{
    Diagnostic diagnostic;
    diagnostic.code = DiagCode::NonFiniteTtm;
    diagnostic.message = "boom";
    diagnostic.file = "x.cc";
    diagnostic.line = 42;
    diagnostic.point_index = 7;
    const std::string text = diagnostic.describe();
    EXPECT_NE(text.find("non-finite-ttm"), std::string::npos);
    EXPECT_NE(text.find("point 7"), std::string::npos);
    EXPECT_NE(text.find("boom"), std::string::npos);
    EXPECT_EQ(diagnostic.locate(), "x.cc:42");
}

TEST(DiagnosticTest, UnknownLocationRendersQuestionMark)
{
    EXPECT_EQ(Diagnostic{}.locate(), "?");
}

TEST(FiniteOrTest, PassesFiniteValuesThrough)
{
    EXPECT_DOUBLE_EQ(finiteOr(3.5, DiagCode::NonFiniteTtm, "ctx"), 3.5);
    EXPECT_DOUBLE_EQ(finiteOr(0.0, DiagCode::NonFiniteTtm, "ctx"), 0.0);
    EXPECT_DOUBLE_EQ(finiteOr(-1e308, DiagCode::NonFiniteTtm, "ctx"),
                     -1e308);
}

TEST(FiniteOrTest, ThrowsStructuredNumericErrorOnNanAndInf)
{
    for (const double bad : {kNan, kInf, -kInf}) {
        try {
            finiteOr(bad, DiagCode::NonFiniteCas, "the context");
            FAIL() << "finiteOr accepted a non-finite value";
        } catch (const NumericError& error) {
            EXPECT_EQ(error.diagnostic().code, DiagCode::NonFiniteCas);
            EXPECT_NE(
                error.diagnostic().message.find("the context"),
                std::string::npos);
            // The call site is captured, not finiteOr's own body.
            EXPECT_NE(error.diagnostic().file.find("test_outcome"),
                      std::string::npos);
        }
    }
}

TEST(FiniteOrTest, LazyContextIsBuiltOnlyWhenTheGuardFires)
{
    int built = 0;
    const auto context = [&] {
        ++built;
        return std::string("TTM of design 'a11'");
    };
    EXPECT_DOUBLE_EQ(finiteOr(2.5, DiagCode::NonFiniteTtm, context), 2.5);
    EXPECT_EQ(built, 0);

    const int line = __LINE__ + 2;
    try {
        finiteOr(-kInf, DiagCode::NonFiniteTtm, context);
        FAIL() << "finiteOr accepted a non-finite value";
    } catch (const NumericError& error) {
        EXPECT_EQ(built, 1);
        EXPECT_EQ(error.diagnostic().message,
                  "TTM of design 'a11' produced a non-finite value (-Inf)");
        EXPECT_NE(error.diagnostic().file.find("test_outcome"),
                  std::string::npos);
        EXPECT_EQ(error.diagnostic().line, line);
    }
}

TEST(FiniteOrTest, NumericErrorIsCatchableAsModelError)
{
    EXPECT_THROW(finiteOr(kNan, DiagCode::NonFiniteCost, "ctx"),
                 ModelError);
}

TEST(OutcomeTest, DefaultSlotReadsAsNeverEvaluated)
{
    const Outcome<double> outcome;
    EXPECT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.diagnostic().code, DiagCode::Unknown);
    EXPECT_NE(outcome.diagnostic().message.find("never evaluated"),
              std::string::npos);
}

TEST(OutcomeTest, SuccessHoldsValueFailureHoldsDiagnostic)
{
    const auto good = Outcome<double>::success(1.25);
    EXPECT_TRUE(good.ok());
    EXPECT_TRUE(static_cast<bool>(good));
    EXPECT_DOUBLE_EQ(good.value(), 1.25);
    EXPECT_DOUBLE_EQ(good.valueOr(9.0), 1.25);

    Diagnostic diagnostic;
    diagnostic.code = DiagCode::NonFiniteYield;
    diagnostic.point_index = 3;
    const auto bad = Outcome<double>::failure(diagnostic);
    EXPECT_FALSE(bad.ok());
    EXPECT_DOUBLE_EQ(bad.valueOr(9.0), 9.0);
    EXPECT_THROW(bad.value(), NumericError);
    EXPECT_THROW(Outcome<double>::success(1.0).diagnostic(),
                 InternalError);
}

TEST(GuardedPointTest, MapsExceptionTypesToCodes)
{
    const auto clean = guardedPoint(0, [] { return 2.0; });
    ASSERT_TRUE(clean.ok());
    EXPECT_DOUBLE_EQ(clean.value(), 2.0);

    // NumericError keeps its structured code; the point index is set.
    const auto numeric = guardedPoint(4, []() -> double {
        return finiteOr(kNan, DiagCode::NonFiniteTtm, "ctx");
    });
    ASSERT_FALSE(numeric.ok());
    EXPECT_EQ(numeric.diagnostic().code, DiagCode::NonFiniteTtm);
    EXPECT_EQ(numeric.diagnostic().point_index, 4u);

    const auto model = guardedPoint(5, []() -> double {
        TTMCAS_REQUIRE(false, "bad input");
        return 0.0;
    });
    ASSERT_FALSE(model.ok());
    EXPECT_EQ(model.diagnostic().code, DiagCode::InvalidInput);
    EXPECT_EQ(model.diagnostic().point_index, 5u);

    const auto internal = guardedPoint(6, []() -> double {
        TTMCAS_INVARIANT(false, "broken invariant");
        return 0.0;
    });
    ASSERT_FALSE(internal.ok());
    EXPECT_EQ(internal.diagnostic().code, DiagCode::InternalFault);

    const auto unknown = guardedPoint(7, []() -> double {
        throw std::runtime_error("plain exception");
    });
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.diagnostic().code, DiagCode::Unknown);
    EXPECT_EQ(unknown.diagnostic().message, "plain exception");
}

TEST(FailurePolicyTest, FactoriesAndPredicates)
{
    EXPECT_FALSE(FailurePolicy{}.skips());
    EXPECT_FALSE(FailurePolicy::abort().skips());
    EXPECT_TRUE(FailurePolicy::skipAndRecord().skips());
    EXPECT_DOUBLE_EQ(FailurePolicy::skipAndRecord().max_failure_fraction,
                     1.0);
    EXPECT_DOUBLE_EQ(
        FailurePolicy::skipAndRecord(0.25).max_failure_fraction, 0.25);
}

Diagnostic
diagnosticAt(std::size_t point, DiagCode code = DiagCode::NonFiniteTtm)
{
    Diagnostic diagnostic;
    diagnostic.code = code;
    diagnostic.message = "failure at " + std::to_string(point);
    diagnostic.point_index = point;
    return diagnostic;
}

TEST(FailureReportTest, CountsByCodeAndRespectsDetailLimit)
{
    FailureReport report(2);
    for (int i = 0; i < 5; ++i)
        report.addPoint();
    report.record(diagnosticAt(1, DiagCode::NonFiniteTtm));
    report.record(diagnosticAt(2, DiagCode::InjectedFault));
    report.record(diagnosticAt(4, DiagCode::NonFiniteTtm));

    EXPECT_EQ(report.pointCount(), 5u);
    EXPECT_EQ(report.failureCount(), 3u);
    EXPECT_FALSE(report.empty());
    EXPECT_DOUBLE_EQ(report.failureFraction(), 0.6);
    EXPECT_EQ(report.count(DiagCode::NonFiniteTtm), 2u);
    EXPECT_EQ(report.count(DiagCode::InjectedFault), 1u);
    EXPECT_EQ(report.count(DiagCode::Unknown), 0u);
    // Only the first two detailed records are kept, in point order.
    ASSERT_EQ(report.detailed().size(), 2u);
    EXPECT_EQ(report.detailed()[0].point_index, 1u);
    EXPECT_EQ(report.detailed()[1].point_index, 2u);

    report.clear();
    EXPECT_TRUE(report.empty());
    EXPECT_EQ(report.pointCount(), 0u);
    EXPECT_DOUBLE_EQ(report.failureFraction(), 0.0);
}

TEST(FailureReportTest, SummaryIsDeterministic)
{
    const auto build = [] {
        FailureReport report;
        report.addPoint();
        report.addPoint();
        report.record(diagnosticAt(1, DiagCode::InjectedFault));
        return report;
    };
    const FailureReport a = build();
    const FailureReport b = build();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.summary(), b.summary());
    EXPECT_NE(a.summary().find("1 of 2 points failed"),
              std::string::npos);
    EXPECT_NE(a.summary().find("injected-fault: 1"), std::string::npos);
}

TEST(EnforcePolicyTest, AbortRethrowsLowestIndexFailure)
{
    std::vector<Outcome<double>> outcomes;
    outcomes.push_back(Outcome<double>::success(1.0));
    outcomes.push_back(Outcome<double>::failure(diagnosticAt(1)));
    outcomes.push_back(Outcome<double>::failure(diagnosticAt(2)));

    FailureReport report;
    try {
        enforcePolicy(outcomes, FailurePolicy::abort(), &report, "kernel");
        FAIL() << "abort policy did not throw";
    } catch (const NumericError& error) {
        EXPECT_EQ(error.diagnostic().point_index, 1u);
    }
    // The report is still filled before the throw.
    EXPECT_EQ(report.pointCount(), 3u);
    EXPECT_EQ(report.failureCount(), 2u);
}

TEST(EnforcePolicyTest, SkipAndRecordBuildsReportWithoutThrowing)
{
    std::vector<Outcome<double>> outcomes;
    outcomes.push_back(Outcome<double>::success(1.0));
    outcomes.push_back(Outcome<double>::failure(diagnosticAt(1)));
    outcomes.push_back(Outcome<double>::success(3.0));

    FailureReport report;
    EXPECT_NO_THROW(enforcePolicy(outcomes, FailurePolicy::skipAndRecord(),
                                  &report, "kernel"));
    EXPECT_EQ(report.pointCount(), 3u);
    EXPECT_EQ(report.failureCount(), 1u);
}

TEST(EnforcePolicyTest, CircuitBreakerTripsOnExcessFailures)
{
    std::vector<Outcome<double>> outcomes;
    outcomes.push_back(Outcome<double>::failure(diagnosticAt(0)));
    outcomes.push_back(Outcome<double>::failure(diagnosticAt(1)));
    outcomes.push_back(Outcome<double>::success(1.0));
    outcomes.push_back(Outcome<double>::success(2.0));

    // 50% failed: fine at max 0.5, fatal at max 0.25.
    EXPECT_NO_THROW(enforcePolicy(
        outcomes, FailurePolicy::skipAndRecord(0.5), nullptr, "kernel"));
    try {
        enforcePolicy(outcomes, FailurePolicy::skipAndRecord(0.25),
                      nullptr, "kernel");
        FAIL() << "circuit breaker did not trip";
    } catch (const NumericError& error) {
        EXPECT_NE(error.diagnostic().message.find("max_failure_fraction"),
                  std::string::npos);
        EXPECT_NE(error.diagnostic().message.find("kernel"),
                  std::string::npos);
    }
}

} // namespace
} // namespace ttmcas
