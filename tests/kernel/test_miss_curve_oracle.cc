/**
 * @file
 * The miss-curve identity contract (docs/PERFORMANCE.md, "Miss
 * curves"): measureMissCurve's single streamed pass over a shared
 * move-to-front tag store must give bitwise the same miss rates as the
 * reference below, which builds one LRU Cache per capacity and
 * regenerates the stream for each. Labeled "kernel" with the batch
 * identity suite.
 */

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/cache.hh"
#include "sim/miss_curves.hh"
#include "sim/workloads.hh"
#include "stats/rng.hh"
#include "support/error.hh"

namespace ttmcas {
namespace {

/** One Cache per capacity, the stream regenerated for each. */
std::vector<double>
referenceMissRates(const Workload& workload, bool instruction_stream,
                   const MissCurveOptions& options)
{
    const auto& generator = instruction_stream ? workload.instruction_stream
                                               : workload.data_stream;
    std::vector<double> rates;
    for (std::uint64_t size : options.sizes_bytes) {
        CacheConfig config;
        config.size_bytes = size;
        config.line_bytes = options.line_bytes;
        config.associativity = options.associativity;
        Cache cache(config, options.seed);
        generator->reset();
        Rng rng(options.seed);
        for (std::size_t i = 0; i < options.warmup_accesses; ++i)
            cache.access(generator->next(rng));
        const CacheStats warm = cache.stats();
        for (std::size_t i = 0; i < options.measured_accesses; ++i)
            cache.access(generator->next(rng));
        const std::uint64_t accesses = cache.stats().accesses - warm.accesses;
        const std::uint64_t hits = cache.stats().hits - warm.hits;
        rates.push_back(static_cast<double>(accesses - hits) /
                        static_cast<double>(accesses));
    }
    return rates;
}

void
expectBitwiseEqual(const Workload& workload, bool instruction_stream,
                   const MissCurveOptions& options, const std::string& label)
{
    const std::vector<double> expected =
        referenceMissRates(workload, instruction_stream, options);
    const MissCurve curve =
        measureMissCurve(workload, instruction_stream, options);
    ASSERT_EQ(curve.sizes_bytes, options.sizes_bytes) << label;
    ASSERT_EQ(curve.miss_rates.size(), expected.size()) << label;
    EXPECT_EQ(std::memcmp(curve.miss_rates.data(), expected.data(),
                          expected.size() * sizeof(double)),
              0)
        << label;
}

TEST(MissCurveOracleTest, EverySuiteStreamMatchesPerCapacityCaches)
{
    MissCurveOptions options;
    options.sizes_bytes = MissCurveOptions::paperSizes();
    options.warmup_accesses = 5'000;
    options.measured_accesses = 15'000;
    for (const Workload& workload : defaultWorkloadSuite()) {
        for (bool instruction : {true, false}) {
            expectBitwiseEqual(workload, instruction, options,
                               workload.name +
                                   (instruction ? " I-stream" : " D-stream"));
        }
    }
}

TEST(MissCurveOracleTest, RandomGeometriesMatchPerCapacityCaches)
{
    const auto suite = defaultWorkloadSuite();
    Rng pick(0x0dac1e);
    for (int round = 0; round < 3; ++round) {
        for (std::uint32_t associativity : {1u, 2u, 8u, 16u}) {
            for (std::uint32_t line_bytes : {32u, 128u}) {
                MissCurveOptions options;
                options.associativity = associativity;
                options.line_bytes = line_bytes;
                options.seed = pick.next();
                options.warmup_accesses = round == 0 ? 0 : 3'000;
                options.measured_accesses = 6'000;
                // Unsorted, with a duplicate and a one-set cache: each
                // entry is simulated as its own cache.
                const std::uint64_t set_bytes =
                    std::uint64_t{line_bytes} * associativity;
                for (int i = 0; i < 5; ++i) {
                    options.sizes_bytes.push_back(
                        set_bytes << (1 + pick.uniformInt(10)));
                }
                options.sizes_bytes.push_back(options.sizes_bytes[1]);
                options.sizes_bytes.push_back(set_bytes);

                const Workload& workload =
                    suite[pick.uniformInt(suite.size())];
                const bool instruction = pick.uniformInt(2) == 0;
                expectBitwiseEqual(workload, instruction, options,
                                   workload.name + " assoc " +
                                       std::to_string(associativity) +
                                       " line " + std::to_string(line_bytes) +
                                       " round " + std::to_string(round));
            }
        }
    }
}

TEST(MissCurveOracleTest, BadGeometryStillThrows)
{
    const auto suite = defaultWorkloadSuite();
    MissCurveOptions options;
    options.measured_accesses = 100;
    options.sizes_bytes = {1024, 1024 + 256}; // 5 sets
    EXPECT_THROW(measureMissCurve(suite[0], true, options), ModelError);
    options.sizes_bytes = {1024};
    options.line_bytes = 48;
    EXPECT_THROW(measureMissCurve(suite[0], true, options), ModelError);
}

} // namespace
} // namespace ttmcas
