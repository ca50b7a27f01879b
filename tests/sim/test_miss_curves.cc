#include "sim/miss_curves.hh"

#include <gtest/gtest.h>

#include "support/error.hh"

namespace ttmcas {
namespace {

MissCurveOptions
fastOptions()
{
    MissCurveOptions options;
    options.warmup_accesses = 20'000;
    options.measured_accesses = 60'000;
    options.sizes_bytes = {1024, 4096, 16 * 1024, 64 * 1024, 256 * 1024};
    return options;
}

TEST(MissCurveOptionsTest, PaperSizesAre1KBTo1MB)
{
    const auto sizes = MissCurveOptions::paperSizes();
    ASSERT_EQ(sizes.size(), 11u);
    EXPECT_EQ(sizes.front(), 1024u);
    EXPECT_EQ(sizes.back(), 1024u * 1024u);
    for (std::size_t i = 1; i < sizes.size(); ++i)
        EXPECT_EQ(sizes[i], sizes[i - 1] * 2);
}

TEST(MissCurveTest, AtLooksUpExactSize)
{
    MissCurve curve;
    curve.workload = "x";
    curve.sizes_bytes = {1024, 2048};
    curve.miss_rates = {0.5, 0.25};
    EXPECT_DOUBLE_EQ(curve.at(1024), 0.5);
    EXPECT_DOUBLE_EQ(curve.at(2048), 0.25);
    EXPECT_THROW(curve.at(4096), ModelError);
}

TEST(MissCurveMeasurementTest, CurvesAreMonotoneNonIncreasing)
{
    const auto suite = defaultWorkloadSuite();
    const auto options = fastOptions();
    for (const auto& workload : suite) {
        const MissCurve curve =
            measureMissCurve(workload, false, options);
        for (std::size_t i = 1; i < curve.miss_rates.size(); ++i) {
            // Exact: every size has the same associativity, LRU and
            // power-of-two bit-selected sets, so the larger cache holds
            // a superset of the smaller one's lines after every access
            // (LRU inclusion, Hill & Smith 1989) and never misses more.
            EXPECT_LE(curve.miss_rates[i], curve.miss_rates[i - 1])
                << workload.name << " size "
                << curve.sizes_bytes[i];
        }
    }
}

TEST(MissCurveMeasurementTest, RatesAreValidProbabilities)
{
    const auto suite = defaultWorkloadSuite();
    const auto options = fastOptions();
    const MissCurve curve = measureMissCurve(suite[0], true, options);
    for (double rate : curve.miss_rates) {
        EXPECT_GE(rate, 0.0);
        EXPECT_LE(rate, 1.0);
    }
    EXPECT_TRUE(curve.instruction_stream);
    EXPECT_EQ(curve.workload, suite[0].name);
}

TEST(MissCurveMeasurementTest, MeasurementIsDeterministic)
{
    const auto suite = defaultWorkloadSuite();
    const auto options = fastOptions();
    const MissCurve a = measureMissCurve(suite[1], false, options);
    const MissCurve b = measureMissCurve(suite[1], false, options);
    EXPECT_EQ(a.miss_rates, b.miss_rates);
}

TEST(MissCurveMeasurementTest, InstructionMissesVanishForTinyKernels)
{
    const auto suite = defaultWorkloadSuite();
    const auto options = fastOptions();
    // "tightloop" has a ~4KB code footprint: a 64KB I$ swallows it.
    const MissCurve curve =
        measureMissCurve(findWorkload(suite, "tightloop"), true, options);
    EXPECT_LT(curve.at(64 * 1024), 0.01);
}

TEST(MissCurveMeasurementTest, StreamingDataNeverFits)
{
    const auto suite = defaultWorkloadSuite();
    const auto options = fastOptions();
    const MissCurve curve =
        measureMissCurve(findWorkload(suite, "stream"), false, options);
    // A pure streaming component leaves a capacity-independent floor.
    EXPECT_GT(curve.at(256 * 1024), 0.05);
}

TEST(AverageMissCurvesTest, AveragesAcrossSuite)
{
    const auto suite = defaultWorkloadSuite();
    const auto options = fastOptions();
    const auto [instr, data] = averageMissCurves(suite, options);
    EXPECT_EQ(instr.workload, "suite-average");
    EXPECT_TRUE(instr.instruction_stream);
    EXPECT_FALSE(data.instruction_stream);
    ASSERT_EQ(instr.sizes_bytes, options.sizes_bytes);

    // The average must be bracketed by per-workload extremes.
    double min_rate = 1.0, max_rate = 0.0;
    for (const auto& workload : suite) {
        const double rate =
            measureMissCurve(workload, false, options).at(1024);
        min_rate = std::min(min_rate, rate);
        max_rate = std::max(max_rate, rate);
    }
    EXPECT_GE(data.at(1024), min_rate);
    EXPECT_LE(data.at(1024), max_rate);
}

TEST(AverageMissCurvesTest, DataMissesExceedInstructionMisses)
{
    // Real SPEC-like behavior: D-streams miss more than I-streams.
    const auto [instr, data] =
        averageMissCurves(defaultWorkloadSuite(), fastOptions());
    EXPECT_GT(data.at(16 * 1024), instr.at(16 * 1024));
}

TEST(MissCurveMeasurementTest, RejectsBadConfiguration)
{
    const auto suite = defaultWorkloadSuite();
    MissCurveOptions options = fastOptions();
    options.measured_accesses = 0;
    EXPECT_THROW(measureMissCurve(suite[0], false, options), ModelError);
    EXPECT_THROW(averageMissCurves({}, fastOptions()), ModelError);
}

} // namespace
} // namespace ttmcas
