#include "stats/sobol.hh"

#include <cmath>
#include <numbers>
#include <string>

#include <gtest/gtest.h>

#include "support/error.hh"

namespace ttmcas {
namespace {

/** Hold distributions alive alongside the input descriptors. */
struct InputSet
{
    std::vector<std::unique_ptr<Distribution>> owned;
    std::vector<SensitivityInput> inputs;

    void
    add(const std::string& name, double lo, double hi)
    {
        owned.push_back(std::make_unique<UniformDistribution>(lo, hi));
        inputs.push_back(SensitivityInput{name, owned.back().get()});
    }
};

TEST(SobolTest, LinearModelSplitsVarianceByCoefficientSquared)
{
    // y = c + 2*x1 + x2, x_i ~ U[-1, 1]: Var = 4/3 + 1/3; S1 = 0.8,
    // S2 = 0.2 for any offset c. The offset case guards the first-order
    // estimator against an output whose squared mean dwarfs its
    // variance (TTM's mean^2 is ~720x its variance).
    InputSet set;
    set.add("x1", -1.0, 1.0);
    set.add("x2", -1.0, 1.0);

    for (const double offset : {0.0, 1e3}) {
        SCOPED_TRACE("offset " + std::to_string(offset));
        SobolOptions options;
        options.base_samples = 4096;
        const SobolResult result = sobolAnalyze(
            set.inputs,
            [offset](const std::vector<double>& x) {
                return offset + 2.0 * x[0] + x[1];
            },
            options);

        EXPECT_NEAR(result.first_order[0], 0.8, 0.05);
        EXPECT_NEAR(result.first_order[1], 0.2, 0.05);
        // Additive model: total effects equal first-order effects.
        EXPECT_NEAR(result.total_effect[0], 0.8, 0.05);
        EXPECT_NEAR(result.total_effect[1], 0.2, 0.05);
        EXPECT_EQ(result.dominantInput(), 0u);
        EXPECT_NEAR(result.output_mean, offset, 0.05);
        EXPECT_NEAR(result.output_variance, 5.0 / 3.0, 0.1);
    }
}

TEST(SobolTest, IrrelevantInputGetsNearZeroIndices)
{
    InputSet set;
    set.add("live", 0.0, 1.0);
    set.add("dead", 0.0, 1.0);

    SobolOptions options;
    options.base_samples = 2048;
    const SobolResult result = sobolAnalyze(
        set.inputs,
        [](const std::vector<double>& x) { return std::exp(x[0]); },
        options);

    EXPECT_GT(result.total_effect[0], 0.9);
    EXPECT_LT(result.total_effect[1], 0.02);
}

TEST(SobolTest, IshigamiFunctionMatchesAnalyticIndices)
{
    // Ishigami (a=7, b=0.1): the standard global-sensitivity benchmark.
    constexpr double a = 7.0;
    constexpr double b = 0.1;
    InputSet set;
    const double pi = std::numbers::pi;
    set.add("x1", -pi, pi);
    set.add("x2", -pi, pi);
    set.add("x3", -pi, pi);

    SobolOptions options;
    options.base_samples = 16384;
    const SobolResult result = sobolAnalyze(
        set.inputs,
        [=](const std::vector<double>& x) {
            return std::sin(x[0]) + a * std::sin(x[1]) * std::sin(x[1]) +
                   b * std::pow(x[2], 4.0) * std::sin(x[0]);
        },
        options);

    // Analytic values: V = a^2/8 + b*pi^4/5 + b^2*pi^8/18 + 1/2.
    const double v = a * a / 8.0 + b * std::pow(pi, 4) / 5.0 +
                     b * b * std::pow(pi, 8) / 18.0 + 0.5;
    const double s1 =
        (0.5 * std::pow(1.0 + b * std::pow(pi, 4) / 5.0, 2)) / v;
    const double s2 = (a * a / 8.0) / v;
    const double st3 =
        (8.0 * b * b * std::pow(pi, 8) / 225.0) / v;

    EXPECT_NEAR(result.first_order[0], s1, 0.05);
    EXPECT_NEAR(result.first_order[1], s2, 0.05);
    EXPECT_NEAR(result.first_order[2], 0.0, 0.05);
    // x3 only matters through its interaction with x1.
    EXPECT_NEAR(result.total_effect[2], st3, 0.05);
    EXPECT_GT(result.total_effect[0], result.first_order[0] - 0.05);
}

TEST(SobolTest, ConstantModelYieldsZeroIndices)
{
    InputSet set;
    set.add("x", 0.0, 1.0);
    SobolOptions options;
    options.base_samples = 128;
    const SobolResult result = sobolAnalyze(
        set.inputs, [](const std::vector<double>&) { return 42.0; },
        options);
    EXPECT_DOUBLE_EQ(result.total_effect[0], 0.0);
    EXPECT_DOUBLE_EQ(result.first_order[0], 0.0);
    EXPECT_NEAR(result.output_mean, 42.0, 1e-12);
}

TEST(SobolTest, DeterministicForFixedSeed)
{
    InputSet set;
    set.add("x", 0.0, 1.0);
    set.add("y", 0.0, 1.0);
    const auto model = [](const std::vector<double>& x) {
        return x[0] * x[1];
    };
    SobolOptions options;
    options.base_samples = 256;
    const SobolResult a = sobolAnalyze(set.inputs, model, options);
    const SobolResult b = sobolAnalyze(set.inputs, model, options);
    EXPECT_DOUBLE_EQ(a.total_effect[0], b.total_effect[0]);
    EXPECT_DOUBLE_EQ(a.first_order[1], b.first_order[1]);
}

TEST(SobolTest, EvaluationCountIsNTimesKPlusTwo)
{
    InputSet set;
    set.add("x", 0.0, 1.0);
    set.add("y", 0.0, 1.0);
    set.add("z", 0.0, 1.0);
    std::size_t calls = 0;
    SobolOptions options;
    options.base_samples = 64;
    const SobolResult result = sobolAnalyze(
        set.inputs,
        [&](const std::vector<double>& x) {
            ++calls;
            return x[0];
        },
        options);
    EXPECT_EQ(result.evaluations, 64u * (3 + 2));
    EXPECT_EQ(calls, result.evaluations);
}

TEST(SobolTest, RejectsInvalidConfigurations)
{
    InputSet set;
    set.add("x", 0.0, 1.0);
    const auto model = [](const std::vector<double>& x) { return x[0]; };

    EXPECT_THROW(sobolAnalyze({}, model), ModelError);

    SobolOptions tiny;
    tiny.base_samples = 1;
    EXPECT_THROW(sobolAnalyze(set.inputs, model, tiny), ModelError);

    std::vector<SensitivityInput> null_input{{"broken", nullptr}};
    EXPECT_THROW(sobolAnalyze(null_input, model), ModelError);
}

TEST(SobolBootstrapTest, IntervalsBracketTheTrueIndices)
{
    // y = 2*x1 + x2: S = {0.8, 0.2} exactly.
    InputSet set;
    set.add("x1", -1.0, 1.0);
    set.add("x2", -1.0, 1.0);
    SobolOptions options;
    options.base_samples = 2048;
    SobolRowData rows;
    const SobolResult result = sobolAnalyze(
        set.inputs,
        [](const std::vector<double>& x) { return 2.0 * x[0] + x[1]; },
        options, &rows);
    const SobolConfidence ci = sobolBootstrapCi(rows, 300);

    ASSERT_EQ(ci.total_effect.size(), 2u);
    // A 95% interval can legitimately miss; allow a small margin on
    // top of the nominal truth.
    EXPECT_LE(ci.total_effect[0].first, 0.82);
    EXPECT_GE(ci.total_effect[0].second, 0.78);
    EXPECT_LE(ci.total_effect[1].first, 0.22);
    EXPECT_GE(ci.total_effect[1].second, 0.18);
    // The point estimates sit inside their own intervals.
    EXPECT_LE(ci.total_effect[0].first, result.total_effect[0]);
    EXPECT_GE(ci.total_effect[0].second, result.total_effect[0]);
    EXPECT_LE(ci.first_order[0].first, result.first_order[0]);
    EXPECT_GE(ci.first_order[0].second, result.first_order[0]);
}

TEST(SobolBootstrapTest, MoreSamplesTightenTheIntervals)
{
    InputSet set;
    set.add("x1", -1.0, 1.0);
    set.add("x2", -1.0, 1.0);
    const auto model = [](const std::vector<double>& x) {
        return 2.0 * x[0] + x[1];
    };
    const auto width_at = [&](std::size_t n) {
        SobolOptions options;
        options.base_samples = n;
        SobolRowData rows;
        sobolAnalyze(set.inputs, model, options, &rows);
        const SobolConfidence ci = sobolBootstrapCi(rows, 300);
        return ci.total_effect[0].second - ci.total_effect[0].first;
    };
    EXPECT_LT(width_at(4096), width_at(128));
}

TEST(SobolBootstrapTest, RowDataHasExpectedShape)
{
    InputSet set;
    set.add("x", 0.0, 1.0);
    set.add("y", 0.0, 1.0);
    SobolOptions options;
    options.base_samples = 64;
    SobolRowData rows;
    sobolAnalyze(set.inputs,
                 [](const std::vector<double>& x) { return x[0] * x[1]; },
                 options, &rows);
    EXPECT_EQ(rows.f_a.size(), 64u);
    EXPECT_EQ(rows.f_b.size(), 64u);
    ASSERT_EQ(rows.f_ab.size(), 2u);
    EXPECT_EQ(rows.f_ab[0].size(), 64u);
}

TEST(SobolBootstrapTest, RejectsDegenerateInput)
{
    SobolRowData empty;
    EXPECT_THROW(sobolBootstrapCi(empty), ModelError);

    SobolRowData lopsided;
    lopsided.f_a = {1.0, 2.0};
    lopsided.f_b = {1.0};
    lopsided.f_ab = {{1.0, 2.0}};
    EXPECT_THROW(sobolBootstrapCi(lopsided), ModelError);

    SobolRowData valid;
    valid.f_a = {1.0, 2.0};
    valid.f_b = {1.5, 2.5};
    valid.f_ab = {{1.0, 2.0}};
    EXPECT_THROW(sobolBootstrapCi(valid, 5), ModelError);
    EXPECT_THROW(sobolBootstrapCi(valid, 100, 1.0), ModelError);
    EXPECT_NO_THROW(sobolBootstrapCi(valid, 100, 0.9));
}

TEST(SobolTest, NamesArePreserved)
{
    InputSet set;
    set.add("alpha", 0.0, 1.0);
    set.add("beta", 0.0, 1.0);
    SobolOptions options;
    options.base_samples = 64;
    options.seed = 1;
    const SobolResult result = sobolAnalyze(
        set.inputs, [](const std::vector<double>& x) { return x[0]; },
        options);
    ASSERT_EQ(result.input_names.size(), 2u);
    EXPECT_EQ(result.input_names[0], "alpha");
    EXPECT_EQ(result.input_names[1], "beta");
}

} // namespace
} // namespace ttmcas
