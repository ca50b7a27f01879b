/**
 * @file
 * Properties of three exact rewrites, each checked against the plain
 * computation it replaces:
 *
 *  - UniformIntSampler's multiply-high reciprocal remainder equals
 *    raw % bound, and its draws, like Rng::uniformInt's, equal the
 *    modulo rejection loop;
 *  - selectPercentiles / selectPercentileInterval equal the sorted
 *    Summary::percentile / percentileInterval bit for bit;
 *  - the sort-and-sweep paretoFront equals the O(n^2) all-pairs scan.
 */

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "opt/pareto.hh"
#include "stats/rng.hh"
#include "stats/summary.hh"

namespace ttmcas {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

/** 2^64 mod bound: the smallest raw the rejection loop accepts. */
std::uint64_t
threshold(std::uint64_t bound)
{
    return (~bound + 1) % bound;
}

TEST(UniformIntSamplerProperty, ReciprocalRemainderMatchesModulo)
{
    const std::uint64_t bounds[] = {
        3,
        5,
        7,
        (std::uint64_t{1} << 32) - 1,
        (std::uint64_t{1} << 32) + 1,
        (std::uint64_t{1} << 63) - 1,
        (std::uint64_t{1} << 63) + 1,
        kMax,
    };
    Rng rng(0x5eed);
    for (const std::uint64_t bound : bounds) {
        const UniformIntSampler sampler(bound);
        const std::uint64_t edges[] = {0,
                                       1,
                                       bound - 1,
                                       bound,
                                       bound + 1,
                                       threshold(bound),
                                       threshold(bound) - 1,
                                       kMax - 1,
                                       kMax};
        for (const std::uint64_t raw : edges)
            EXPECT_EQ(sampler.remainder(raw), raw % bound)
                << "bound " << bound << " raw " << raw;
        for (int i = 0; i < 100000; ++i) {
            const std::uint64_t raw = rng.next();
            ASSERT_EQ(sampler.remainder(raw), raw % bound)
                << "bound " << bound << " raw " << raw;
        }
    }
}

TEST(UniformIntSamplerProperty, SeededBoundsAndRawsMatchModulo)
{
    Rng rng(20230806);
    for (int b = 0; b < 2000; ++b) {
        // Bounds spread over every bit width, powers of two excluded
        // (those take the mask path).
        std::uint64_t bound = rng.next() >> (rng.next() % 63);
        if (bound < 3 || (bound & (bound - 1)) == 0)
            continue;
        const UniformIntSampler sampler(bound);
        for (int i = 0; i < 200; ++i) {
            const std::uint64_t raw = rng.next() >> (rng.next() % 64);
            ASSERT_EQ(sampler.remainder(raw), raw % bound)
                << "bound " << bound << " raw " << raw;
        }
        ASSERT_EQ(sampler.remainder(threshold(bound)),
                  threshold(bound) % bound);
    }
}

TEST(UniformIntSamplerProperty, DrawsMatchTheModuloRejectionLoop)
{
    for (const std::uint64_t bound :
         {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
          std::uint64_t{96}, std::uint64_t{125}, std::uint64_t{1000003},
          (std::uint64_t{1} << 63) + 1, kMax}) {
        const UniformIntSampler sampler(bound);
        Rng fast(bound ^ 0xd1ce);
        Rng one_shot(bound ^ 0xd1ce);
        Rng reference(bound ^ 0xd1ce);
        const std::uint64_t floor =
            (bound & (bound - 1)) == 0 ? 0 : threshold(bound);
        for (int i = 0; i < 20000; ++i) {
            std::uint64_t raw = reference.next();
            while (raw < floor)
                raw = reference.next();
            ASSERT_EQ(sampler(fast), raw % bound) << "bound " << bound;
            ASSERT_EQ(one_shot.uniformInt(bound), raw % bound)
                << "bound " << bound;
        }
    }
}

/** Bit-exact comparison that reports the values on failure. */
void
expectSameBits(double actual, double expected, const char* what)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
              std::bit_cast<std::uint64_t>(expected))
        << what << ": " << actual << " vs " << expected;
}

void
expectSelectionMatchesSort(const std::vector<double>& samples)
{
    const Summary summary = Summary::of(samples);
    const std::vector<double> ps = {0.0,  0.5,  2.5,  5.0,  25.0, 50.0,
                                    62.5, 75.0, 95.0, 97.5, 99.9, 100.0};
    std::vector<double> work = samples;
    std::vector<double> selected(ps.size());
    selectPercentiles(work, ps, selected);
    for (std::size_t i = 0; i < ps.size(); ++i)
        expectSameBits(selected[i], summary.percentile(ps[i]), "percentile");

    // One percentile at a time from the original order, too.
    for (const double p : ps) {
        std::vector<double> one = samples;
        double value = 0.0;
        selectPercentiles(one, {&p, 1}, {&value, 1});
        expectSameBits(value, summary.percentile(p), "single percentile");
    }
    for (const double coverage : {0.5, 0.9, 0.95, 0.99}) {
        std::vector<double> copy = samples;
        const Interval selected_interval =
            selectPercentileInterval(copy, coverage);
        const Interval sorted_interval = summary.percentileInterval(coverage);
        expectSameBits(selected_interval.lo, sorted_interval.lo, "ci lo");
        expectSameBits(selected_interval.hi, sorted_interval.hi, "ci hi");
    }
}

TEST(SelectPercentilesProperty, TinySamplesMatchSortedSummary)
{
    expectSelectionMatchesSort({4.25});
    expectSelectionMatchesSort({3.0, -1.5});
    expectSelectionMatchesSort({2.0, 2.0});
    expectSelectionMatchesSort({9.0, 1.0, 5.0});
    expectSelectionMatchesSort({1.0, 1.0, 0.5});
}

TEST(SelectPercentilesProperty, SeededSamplesWithTiesMatchSortedSummary)
{
    Rng rng(7);
    for (const std::size_t n : {4u, 5u, 20u, 21u, 64u, 199u, 200u, 1000u,
                                2048u}) {
        for (int trial = 0; trial < 20; ++trial) {
            std::vector<double> samples(n);
            for (double& x : samples) {
                // Every third trial draws from eight values: many ties.
                x = trial % 3 == 0
                        ? static_cast<double>(rng.next() % 8) * 0.125
                        : rng.normal(50.0, 10.0);
            }
            expectSelectionMatchesSort(samples);
        }
    }
}

TEST(SelectPercentilesProperty, RejectsBadArguments)
{
    std::vector<double> samples = {1.0, 2.0, 3.0};
    double out[2] = {};
    const double descending[] = {50.0, 5.0};
    EXPECT_THROW(selectPercentiles(samples, descending, out), ModelError);
    const double out_of_range[] = {5.0, 101.0};
    EXPECT_THROW(selectPercentiles(samples, out_of_range, out), ModelError);
    std::vector<double> empty;
    EXPECT_THROW(selectPercentileInterval(empty, 0.95), ModelError);
    EXPECT_THROW(selectPercentileInterval(samples, 1.0), ModelError);
}

/** The all-pairs reference: keep every row nothing dominates. */
std::vector<std::size_t>
allPairsFront(const std::vector<std::vector<double>>& scores,
              const std::vector<Objective>& directions)
{
    std::vector<std::size_t> front;
    for (std::size_t i = 0; i < scores.size(); ++i) {
        bool dominated = false;
        for (std::size_t j = 0; j < scores.size() && !dominated; ++j)
            dominated = i != j && dominates(scores[j], scores[i], directions);
        if (!dominated)
            front.push_back(i);
    }
    return front;
}

TEST(ParetoFrontProperty, MatchesAllPairsScanWithTiesAndDuplicates)
{
    Rng rng(0xfab);
    const std::vector<std::vector<Objective>> direction_sets = {
        {Objective::Minimize},
        {Objective::Maximize},
        {Objective::Minimize, Objective::Maximize},
        {Objective::Minimize, Objective::Maximize, Objective::Minimize},
        {Objective::Maximize, Objective::Maximize, Objective::Maximize,
         Objective::Minimize},
    };
    for (const auto& directions : direction_sets) {
        for (int trial = 0; trial < 60; ++trial) {
            const std::size_t n = 1 + rng.next() % 200;
            // Few distinct levels per objective: one-objective ties and
            // exact duplicate rows are common.
            const std::uint64_t levels = 2 + rng.next() % 12;
            std::vector<std::vector<double>> scores(n);
            for (auto& row : scores) {
                for (std::size_t k = 0; k < directions.size(); ++k)
                    row.push_back(
                        static_cast<double>(rng.next() % levels) - 3.0);
            }
            if (n > 3)
                scores[n - 1] = scores[n / 2]; // a guaranteed duplicate
            EXPECT_EQ(paretoFront(scores, directions),
                      allPairsFront(scores, directions))
                << "n " << n << " objectives " << directions.size();
        }
    }
}

TEST(ParetoFrontProperty, SingleObjectiveKeepsEveryTiedBest)
{
    const std::vector<std::vector<double>> scores = {
        {3.0}, {1.0}, {1.0}, {2.0}, {1.0}};
    EXPECT_EQ(paretoFront(scores, {Objective::Minimize}),
              (std::vector<std::size_t>{1, 2, 4}));
    EXPECT_EQ(paretoFront(scores, {Objective::Maximize}),
              (std::vector<std::size_t>{0}));
}

TEST(ParetoFrontProperty, RejectsRaggedRowsAndNaN)
{
    const std::vector<Objective> two = {Objective::Minimize,
                                        Objective::Minimize};
    EXPECT_THROW(paretoFront({{1.0, 2.0}, {1.0}}, two), ModelError);
    EXPECT_THROW(
        paretoFront({{1.0, std::numeric_limits<double>::quiet_NaN()}}, two),
        ModelError);
}

} // namespace
} // namespace ttmcas
