#include "stats/rng.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "support/error.hh"

namespace ttmcas {
namespace {

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformRangeRespectsBounds)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(0.9, 1.1);
        EXPECT_GE(u, 0.9);
        EXPECT_LT(u, 1.1);
    }
    EXPECT_THROW(rng.uniform(2.0, 1.0), ModelError);
}

TEST(RngTest, UniformIntStaysBelowBound)
{
    Rng rng(17);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t v = rng.uniformInt(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all residues visited
    EXPECT_THROW(rng.uniformInt(0), ModelError);
}

TEST(RngTest, UniformIntIsApproximatelyUnbiased)
{
    Rng rng(19);
    constexpr int n = 70000;
    std::vector<int> counts(7, 0);
    for (int i = 0; i < n; ++i)
        ++counts[rng.uniformInt(7)];
    for (int bucket : counts)
        EXPECT_NEAR(bucket, n / 7.0, 5.0 * std::sqrt(n / 7.0));
}

/** uniformInt as first written: the threshold recomputed per draw. */
std::uint64_t
rejectionDraw(Rng& rng, std::uint64_t bound)
{
    const std::uint64_t threshold = (~bound + 1) % bound; // 2^64 mod bound
    for (;;) {
        const std::uint64_t raw = rng.next();
        if (raw >= threshold)
            return raw % bound;
    }
}

TEST(RngTest, UniformIntDrawsEqualTheRejectionFormula)
{
    // Bounds 1..1000 plus every power of two: 10^6 + 64 * 1000 draws,
    // each compared through uniformInt and through a fixed-bound
    // sampler, with every generator left in the same state.
    std::vector<std::uint64_t> bounds;
    for (std::uint64_t bound = 1; bound <= 1000; ++bound)
        bounds.push_back(bound);
    for (int shift = 0; shift < 64; ++shift)
        bounds.push_back(std::uint64_t{1} << shift);
    bounds.push_back(~std::uint64_t{0});
    for (const std::uint64_t bound : bounds) {
        Rng oracle(bound);
        Rng direct(bound);
        Rng fixed(bound);
        const UniformIntSampler sample(bound);
        for (int i = 0; i < 1000; ++i) {
            const std::uint64_t expected = rejectionDraw(oracle, bound);
            ASSERT_EQ(direct.uniformInt(bound), expected)
                << "bound " << bound << " draw " << i;
            ASSERT_EQ(sample(fixed), expected)
                << "bound " << bound << " draw " << i;
        }
        const std::uint64_t after = oracle.next();
        EXPECT_EQ(direct.next(), after) << "bound " << bound;
        EXPECT_EQ(fixed.next(), after) << "bound " << bound;
    }
    EXPECT_THROW(UniformIntSampler(0), ModelError);
}

TEST(RngTest, NormalMomentsMatch)
{
    Rng rng(23);
    constexpr int n = 200000;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sum_sq += x * x;
    }
    const double mean = sum / n;
    const double variance = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.01);
    EXPECT_NEAR(variance, 1.0, 0.02);
}

TEST(RngTest, ScaledNormal)
{
    Rng rng(29);
    constexpr int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
    EXPECT_THROW(rng.normal(0.0, -1.0), ModelError);
}

TEST(RngTest, SplitProducesIndependentStream)
{
    Rng parent(31);
    Rng child = parent.split();
    // Child output differs from parent's subsequent output.
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (parent.next() == child.next())
            ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(RngTest, SplitIsDeterministic)
{
    Rng a(99);
    Rng b(99);
    Rng child_a = a.split();
    Rng child_b = b.split();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(child_a.next(), child_b.next());
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator)
{
    static_assert(std::uniform_random_bit_generator<Rng>);
    Rng rng(1);
    std::vector<int> values{1, 2, 3, 4, 5};
    std::shuffle(values.begin(), values.end(), rng);
    EXPECT_EQ(values.size(), 5u);
}

} // namespace
} // namespace ttmcas
