/**
 * @file
 * averageMissCurves measures the suite's streams concurrently on the
 * process-wide pool and sums them serially in suite order. These tests
 * pin that the result is bitwise the in-order serial sum of
 * measureMissCurve, and that a suite holding one generator twice is
 * measured correctly. Labeled "parallel" so the TSan job runs them.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/miss_curves.hh"

namespace ttmcas {
namespace {

MissCurveOptions
shortWindow()
{
    MissCurveOptions options;
    options.warmup_accesses = 5'000;
    options.measured_accesses = 20'000;
    return options;
}

/** The serial loop averageMissCurves replaced: measure, sum, divide. */
std::pair<MissCurve, MissCurve>
serialAverage(const std::vector<Workload>& suite,
              const MissCurveOptions& options)
{
    const std::vector<std::uint64_t> sizes =
        options.sizes_bytes.empty() ? MissCurveOptions::paperSizes()
                                    : options.sizes_bytes;
    MissCurve instr;
    instr.workload = "suite-average";
    instr.instruction_stream = true;
    instr.sizes_bytes = sizes;
    instr.miss_rates.assign(sizes.size(), 0.0);
    MissCurve data = instr;
    data.instruction_stream = false;
    for (const Workload& workload : suite) {
        const MissCurve wi = measureMissCurve(workload, true, options);
        const MissCurve wd = measureMissCurve(workload, false, options);
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            instr.miss_rates[i] += wi.miss_rates[i];
            data.miss_rates[i] += wd.miss_rates[i];
        }
    }
    const auto n = static_cast<double>(suite.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        instr.miss_rates[i] /= n;
        data.miss_rates[i] /= n;
    }
    return {instr, data};
}

void
expectBitwiseEqual(const MissCurve& actual, const MissCurve& expected)
{
    EXPECT_EQ(actual.workload, expected.workload);
    EXPECT_EQ(actual.instruction_stream, expected.instruction_stream);
    EXPECT_EQ(actual.sizes_bytes, expected.sizes_bytes);
    ASSERT_EQ(actual.miss_rates.size(), expected.miss_rates.size());
    for (std::size_t i = 0; i < actual.miss_rates.size(); ++i)
        EXPECT_EQ(actual.miss_rates[i], expected.miss_rates[i])
            << "size " << actual.sizes_bytes[i];
}

TEST(ParallelMissCurvesTest, AverageIsTheInOrderSerialSum)
{
    const MissCurveOptions options = shortWindow();
    const auto [instr, data] =
        averageMissCurves(defaultWorkloadSuite(), options);
    const auto [serial_instr, serial_data] =
        serialAverage(defaultWorkloadSuite(), options);
    expectBitwiseEqual(instr, serial_instr);
    expectBitwiseEqual(data, serial_data);
}

TEST(ParallelMissCurvesTest, UnsortedCustomSizesKeepTheirOrder)
{
    MissCurveOptions options = shortWindow();
    options.sizes_bytes = {64 * 1024, 2048, 512 * 1024, 1024, 8 * 1024};
    const auto [instr, data] =
        averageMissCurves(defaultWorkloadSuite(), options);
    const auto [serial_instr, serial_data] =
        serialAverage(defaultWorkloadSuite(), options);
    EXPECT_EQ(instr.sizes_bytes, options.sizes_bytes);
    expectBitwiseEqual(instr, serial_instr);
    expectBitwiseEqual(data, serial_data);
}

TEST(ParallelMissCurvesTest, RepeatedWorkloadSharesOneMeasurement)
{
    // Copying a Workload shares its generators, so this suite holds
    // suite[0]'s two generator objects twice. Measuring both copies at
    // once would race on them; the repeat reuses the first curve,
    // which is what a serial remeasurement gives.
    const std::vector<Workload> suite = defaultWorkloadSuite();
    const std::vector<Workload> repeated{suite[0], suite[0], suite[1]};
    const MissCurveOptions options = shortWindow();
    const auto [instr, data] = averageMissCurves(repeated, options);
    const auto [serial_instr, serial_data] =
        serialAverage(repeated, options);
    expectBitwiseEqual(instr, serial_instr);
    expectBitwiseEqual(data, serial_data);
}

} // namespace
} // namespace ttmcas
