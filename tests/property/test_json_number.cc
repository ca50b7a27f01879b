/**
 * @file
 * Differential tests of both directions of JSON numbers.
 *
 * Render: jsonNumber against the printf rendering it replaced:
 * integers below 1e15 through std::to_string, everything else through
 * snprintf("%.17g"). Served payloads and cache files are compared byte
 * for byte, so the two must agree on every double: a million seeded
 * values plus the edges (signed zeros, subnormals, the 1e15 integer
 * cut-over and its neighbours, 2^53, DBL_MAX) and doubles whose exact
 * decimal value is a tie at the 17th significant digit.
 *
 * Parse: parseJson's from_chars conversion against the substr +
 * std::stod scanner it replaced. Both must accept and reject the same
 * runs, give bitwise-equal values and fail with the same text at the
 * same byte: every run of up to six bytes over "0159.eE+-", a million
 * seeded doubles rendered by jsonNumber, and the edges where the two
 * conversions differ by nature (a leading '+', subnormal results,
 * DBL_MIN and the inputs just below it that round up to it).
 */

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stats/rng.hh"
#include "support/error.hh"
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

/** A parse's outcome: the value's bits, or the error text. */
struct NumberParse
{
    bool ok = false;
    std::uint64_t bits = 0;
    std::string error;

    bool operator==(const NumberParse&) const = default;
};

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

bool
isNumberByte(char c)
{
    return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
           c == '+' || c == '-';
}

std::string
parseError(std::size_t at, const std::string& what)
{
    return "JSON parse error at byte " + std::to_string(at) + ": " + what;
}

/**
 * The number scanner parseJson used before from_chars, for a document
 * that holds @p prefix, then a number run, then @p suffix: scan the
 * run, copy it out with substr and convert it with std::stod.
 */
NumberParse
stodOracle(const std::string& text, std::size_t start)
{
    NumberParse result;
    std::size_t pos = start;
    if (pos < text.size() && text[pos] == '-')
        ++pos;
    while (pos < text.size() && isNumberByte(text[pos]))
        ++pos;
    if (pos == start) {
        result.error = parseError(pos, "invalid value");
        return result;
    }
    const std::string token = text.substr(start, pos - start);
    try {
        std::size_t used = 0;
        const double number = std::stod(token, &used);
        if (used != token.size()) {
            result.error = parseError(pos, "invalid number '" + token + "'");
            return result;
        }
        result.ok = true;
        result.bits = bitsOf(number);
    } catch (const std::exception&) {
        result.error = parseError(pos, "invalid number '" + token + "'");
    }
    return result;
}

/** parseJson's outcome for the document @p token alone. */
NumberParse
parsed(const std::string& token)
{
    NumberParse result;
    try {
        const JsonValue value = parseJson(token);
        result.ok = true;
        result.bits = bitsOf(value.asNumber());
    } catch (const ModelError& error) {
        result.error = error.what();
    }
    return result;
}

/** Both parsers agree on @p token; false (with a failure) if not. */
bool
parsesAlike(const std::string& token)
{
    const NumberParse expected = stodOracle(token, 0);
    const NumberParse actual = parsed(token);
    EXPECT_EQ(actual.ok, expected.ok) << "'" << token << "'";
    EXPECT_EQ(actual.bits, expected.bits) << "'" << token << "'";
    EXPECT_EQ(actual.error, expected.error) << "'" << token << "'";
    return actual == expected;
}

TEST(JsonNumberParseDifferential, EveryShortRun)
{
    // Every run of 1..6 bytes over the alphabet below: 597,870 runs,
    // most of them malformed, so the error paths get the most cover.
    static constexpr char kAlphabet[] = "0159.eE+-";
    constexpr std::size_t kLetters = sizeof(kAlphabet) - 1;
    std::size_t mismatches = 0;
    std::size_t accepted = 0;
    for (std::size_t length = 1; length <= 6; ++length) {
        std::vector<std::size_t> digits(length, 0);
        std::string token(length, kAlphabet[0]);
        for (;;) {
            if (!parsesAlike(token) && ++mismatches > 10)
                FAIL() << "too many mismatches";
            accepted += stodOracle(token, 0).ok ? 1 : 0;
            std::size_t i = 0;
            while (i < length && ++digits[i] == kLetters) {
                digits[i] = 0;
                token[i] = kAlphabet[0];
                ++i;
            }
            if (i == length)
                break;
            token[i] = kAlphabet[digits[i]];
        }
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(accepted, 10000u);
}

TEST(JsonNumberParseDifferential, MillionRenderedDoubles)
{
    Rng rng(0x9a25e);
    std::size_t mismatches = 0;
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < 1'000'000 && mismatches == 0; ++i) {
        double value = 0.0;
        switch (i % 4) {
        case 0: value = fromBits(rng.next()); break;
        case 1: value = std::pow(10.0, rng.uniform(-12.0, 20.0)); break;
        case 2:
            value = std::floor(std::pow(10.0, rng.uniform(0.0, 18.0)));
            break;
        default:
            value = static_cast<double>(rng.uniformInt(100000)) / 1000.0;
            break;
        }
        if (rng.next() & 1)
            value = -value;
        if (!std::isfinite(value))
            continue; // rendered as null, not a number
        const std::string token = jsonNumber(value);
        if (!parsesAlike(token))
            ++mismatches;
        if (!stodOracle(token, 0).ok)
            ++rejected; // the subnormals: stod's ERANGE
        else if (bitsOf(value) != stodOracle(token, 0).bits)
            ++mismatches; // the rendering must round-trip
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(JsonNumberParseDifferential, EdgeRuns)
{
    for (const char* token :
         {"+5", "-0", "1e-310", "4.9e-324", "2.2250738585072014e-308",
          "1e400", "1e", "--1", "1.2.3",
          // Just below DBL_MIN: the first rounds up to it but is tiny
          // before rounding, so stod rejects it; the next two are not.
          "2.2250738585072012e-308", "2.22507385850720126e-308",
          "2.2250738585072013e-308",
          // The largest subnormal and the smallest, exactly.
          "2.2250738585072009e-308", "4.9406564584124654e-324",
          "-1e-400", "0e-400", "-0.0e999", "+-5", "++5", "-+5", "+",
          "-", ".", ".5", "5.", "-.5e+1", "1e+", "1e-", "1.7976931348623157e308",
          "1.7976931348623159e308", "00012", "1E5", "9007199254740993"}) {
        EXPECT_TRUE(parsesAlike(token));
    }
}

TEST(JsonNumberParseDifferential, ErrorOffsetsCountTheDocument)
{
    // The same runs inside a document: the error names the byte just
    // past the run, counted from the start of the document.
    for (const char* token : {"1.2.3", "--1", "1e", "1e400", "+", "4.9e-324"}) {
        const std::string text = std::string(R"({"n_chips":)") + token + "}";
        const NumberParse expected = stodOracle(text, 11);
        ASSERT_FALSE(expected.ok) << token;
        try {
            (void)parseJson(text);
            ADD_FAILURE() << token << " parsed";
        } catch (const ModelError& error) {
            EXPECT_EQ(std::string(error.what()), expected.error) << token;
        }
    }
}

} // namespace
} // namespace ttmcas
