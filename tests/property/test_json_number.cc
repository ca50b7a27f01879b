/**
 * @file
 * Differential test of jsonNumber against the printf rendering it
 * replaced: integers below 1e15 through std::to_string, everything
 * else through snprintf("%.17g"). Served payloads and cache files are
 * compared byte for byte, so the two must agree on every double: a
 * million seeded values plus the edges (signed zeros, subnormals, the
 * 1e15 integer cut-over and its neighbours, 2^53, DBL_MAX) and
 * doubles whose exact decimal value is a tie at the 17th significant
 * digit.
 */

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stats/rng.hh"
#include "support/json.hh"

namespace ttmcas {
namespace {

/** The printf-based rendering jsonNumber must reproduce. */
std::string
printfNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    if (std::fabs(value) < 1e15 &&
        value == static_cast<double>(static_cast<long long>(value))) {
        return std::to_string(static_cast<long long>(value));
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

double
fromBits(std::uint64_t bits)
{
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

/** Assert agreement on @p value; returns false on a mismatch. */
bool
agrees(double value)
{
    const std::string expected = printfNumber(value);
    const std::string actual = jsonNumber(value);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    EXPECT_EQ(actual, expected) << "bits 0x" << std::hex << bits;
    return actual == expected;
}

/** Both signs of @p value and its two neighbours. */
std::vector<double>
withNeighbours(double value)
{
    std::vector<double> values;
    for (const double v : {value, -value}) {
        values.push_back(v);
        values.push_back(std::nextafter(v, INFINITY));
        values.push_back(std::nextafter(v, -INFINITY));
    }
    return values;
}

TEST(JsonNumberDifferential, EdgeValues)
{
    std::vector<double> edges = {0.0,
                                 -0.0,
                                 DBL_TRUE_MIN,
                                 DBL_MIN,
                                 std::nextafter(DBL_MIN, 0.0),
                                 DBL_MAX,
                                 DBL_EPSILON,
                                 0.1,
                                 1.0 / 3.0,
                                 NAN,
                                 INFINITY,
                                 -INFINITY};
    for (const double base :
         {1e15, 9007199254740992.0 /* 2^53 */, 1e16, 1e17, 1.0, 0.5,
          DBL_TRUE_MIN, DBL_MIN, DBL_MAX, 1e-300, 1e300, 123456789.0}) {
        for (const double v : withNeighbours(base))
            edges.push_back(v);
    }
    // Every subnormal exponent, at its smallest and largest mantissa.
    for (int shift = 0; shift < 52; ++shift) {
        edges.push_back(fromBits(std::uint64_t{1} << shift));
        edges.push_back(fromBits((std::uint64_t{1} << (shift + 1)) - 1));
    }
    for (const double value : edges)
        ASSERT_TRUE(agrees(value));
}

TEST(JsonNumberDifferential, SeventeenDigitRoundingTies)
{
    // m * 2^-e (odd m) is exactly m * 5^e / 10^e; keep the values
    // whose 18th significant digit is a 5 with nothing after it, i.e.
    // an exact tie when rounding to 17 digits. e < 50 keeps the whole
    // expansion inside the 41 digits printed below.
    std::size_t ties = 0;
    for (std::uint64_t m = 1; m < 4096; m += 2) {
        for (int e = 15; e < 50; ++e) {
            const double value = std::ldexp(static_cast<double>(m), -e);
            char exact[64];
            std::snprintf(exact, sizeof(exact), "%.40e", value);
            // d.ddddddddddddddddd5000...e-XX: digit 18 is exact[18].
            bool tie = exact[18] == '5';
            for (int i = 19; tie && exact[i] != 'e'; ++i)
                tie = exact[i] == '0';
            if (!tie)
                continue;
            ++ties;
            ASSERT_TRUE(agrees(value));
            ASSERT_TRUE(agrees(-value));
        }
    }
    EXPECT_GE(ties, 100u);
}

TEST(JsonNumberDifferential, MillionSeededDoubles)
{
    Rng rng(0x15a7e);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < 1'000'000 && mismatches == 0; ++i) {
        double value = 0.0;
        switch (i % 4) {
        case 0:
            // Any bit pattern: every exponent, subnormals, NaN, Inf.
            value = fromBits(rng.next());
            break;
        case 1:
            // Model-sized magnitudes, 1e-12 .. 1e20.
            value = std::pow(10.0, rng.uniform(-12.0, 20.0));
            break;
        case 2:
            // Integers and near-integers around the 1e15 cut-over.
            value = std::floor(std::pow(10.0, rng.uniform(0.0, 18.0)));
            break;
        default:
            // Short decimals such as request grids and factors.
            value = static_cast<double>(rng.uniformInt(100000)) / 1000.0;
            break;
        }
        if (rng.next() & 1)
            value = -value;
        if (!agrees(value))
            ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u);
}

} // namespace
} // namespace ttmcas
