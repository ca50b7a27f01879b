/**
 * @file
 * parseRequestLine() is the server's trust boundary: every byte a
 * client sends flows through it. These tests pin the contract that any
 * input — malformed, oversized, type-confused, or semantically invalid
 * — maps to a structured RequestError (never an exception), that valid
 * requests fill documented defaults, and that every reply builder
 * emits a parseable single-line JSON object.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/request.hh"
#include "support/json.hh"

namespace ttmcas::serve {
namespace {

const char* const kValidDies =
    R"("design":{"dies":[{"name":"soc","process":"7nm",)"
    R"("total_transistors":2.4e9,"unique_transistors":2e8}]})";

std::string
mcRequest(const std::string& extra = "")
{
    std::string line = R"({"id":"r1","kind":"mc_ttm",)";
    line += kValidDies;
    line += extra;
    line += "}";
    return line;
}

TEST(ParseRequest, MinimalMcTtmGetsTheDocumentedDefaults)
{
    const ParsedRequest parsed = parseRequestLine(mcRequest(), ServeLimits{});
    ASSERT_TRUE(parsed.ok) << parsed.error.message;
    EXPECT_EQ(parsed.request.id, "r1");
    EXPECT_EQ(parsed.request.kind, RequestKind::McTtm);
    EXPECT_EQ(parsed.request.design.dies.size(), 1u);
    EXPECT_DOUBLE_EQ(parsed.request.n_chips, 1e7);
    EXPECT_EQ(parsed.request.seed, 2023u);
    EXPECT_EQ(parsed.request.samples, 256u);
    EXPECT_DOUBLE_EQ(parsed.request.band, 0.10);
    EXPECT_DOUBLE_EQ(parsed.request.deadline_s, 0.0);
    EXPECT_FALSE(parsed.request.no_cache);
    EXPECT_TRUE(parsed.request.grid.empty());
}

TEST(ParseRequest, HealthAndStatsNeedNoDesign)
{
    for (const char* kind : {"health", "stats"}) {
        const std::string line =
            std::string(R"({"id":"h","kind":")") + kind + R"("})";
        const ParsedRequest parsed = parseRequestLine(line, ServeLimits{});
        EXPECT_TRUE(parsed.ok) << kind << ": " << parsed.error.message;
    }
}

TEST(ParseRequest, MalformedJsonIsAStructuredError)
{
    for (const char* line :
         {"", "{", "not json", R"({"id":)", "\"unterminated"}) {
        const ParsedRequest parsed = parseRequestLine(line, ServeLimits{});
        ASSERT_FALSE(parsed.ok) << line;
        EXPECT_EQ(parsed.error.code, "malformed-json") << line;
        EXPECT_FALSE(parsed.error.message.empty());
    }
}

TEST(ParseRequest, IdIsEchoedIntoLaterFailures)
{
    const ParsedRequest parsed = parseRequestLine(
        R"({"id":"correlate-me","kind":"warp_drive"})", ServeLimits{});
    ASSERT_FALSE(parsed.ok);
    EXPECT_EQ(parsed.error.code, "unknown-kind");
    EXPECT_EQ(parsed.error.id, "correlate-me");
    EXPECT_NE(parsed.error.message.find("warp_drive"), std::string::npos);
}

TEST(ParseRequest, MissingKindAndMissingDesignAreInvalid)
{
    const ParsedRequest no_kind =
        parseRequestLine(R"({"id":"a"})", ServeLimits{});
    ASSERT_FALSE(no_kind.ok);
    EXPECT_EQ(no_kind.error.code, "invalid-request");

    const ParsedRequest no_design =
        parseRequestLine(R"({"id":"a","kind":"mc_ttm"})", ServeLimits{});
    ASSERT_FALSE(no_design.ok);
    EXPECT_EQ(no_design.error.code, "invalid-request");
    EXPECT_NE(no_design.error.message.find("design"), std::string::npos);
}

TEST(ParseRequest, UnknownFieldsAreRejectedNotIgnored)
{
    // A typo'd field name must fail loudly; silently defaulting would
    // give the client a confidently wrong answer.
    const ParsedRequest top = parseRequestLine(
        mcRequest(R"(,"sample":512)"), ServeLimits{});
    ASSERT_FALSE(top.ok);
    EXPECT_EQ(top.error.code, "invalid-request");
    EXPECT_NE(top.error.message.find("sample"), std::string::npos);

    const ParsedRequest die_field = parseRequestLine(
        R"({"kind":"mc_ttm","design":{"dies":[{"process":"7nm",)"
        R"("total_transistors":1e9,"unique_transistors":1e8,)"
        R"("total_transitors":1e9}]}})",
        ServeLimits{});
    ASSERT_FALSE(die_field.ok);
    EXPECT_NE(die_field.error.message.find("total_transitors"),
              std::string::npos);
}

TEST(ParseRequest, InvalidDesignReportsEveryViolationAtOnce)
{
    // unique > total AND a bad yield override: both must be named in
    // the single reply (the all-at-once violations() contract).
    const ParsedRequest parsed = parseRequestLine(
        R"({"id":"v","kind":"mc_ttm","design":{"dies":[)"
        R"({"name":"bad","process":"7nm","total_transistors":1e8,)"
        R"("unique_transistors":2e8,"yield_override":1.5}]}})",
        ServeLimits{});
    ASSERT_FALSE(parsed.ok);
    EXPECT_EQ(parsed.error.code, "invalid-design");
    EXPECT_GE(parsed.error.violations.size(), 2u);
}

TEST(ParseRequest, LimitsAreEnforcedPerRequest)
{
    ServeLimits limits;
    limits.max_samples = 1000;
    const ParsedRequest samples = parseRequestLine(
        mcRequest(R"(,"samples":1001)"), limits);
    ASSERT_FALSE(samples.ok);
    EXPECT_EQ(samples.error.code, "limit-exceeded");

    ServeLimits die_limits;
    die_limits.max_dies = 2;
    std::string many =
        R"({"kind":"mc_ttm","design":{"dies":[)";
    for (int i = 0; i < 3; ++i) {
        if (i > 0)
            many += ",";
        many += R"({"process":"7nm","total_transistors":1e9,)"
                R"("unique_transistors":1e8})";
    }
    many += "]}}";
    const ParsedRequest dies = parseRequestLine(many, die_limits);
    ASSERT_FALSE(dies.ok);
    EXPECT_EQ(dies.error.code, "limit-exceeded");

    ServeLimits line_limits;
    line_limits.max_request_bytes = 64;
    const ParsedRequest oversized = parseRequestLine(mcRequest(), line_limits);
    ASSERT_FALSE(oversized.ok);
    EXPECT_EQ(oversized.error.code, "limit-exceeded");
}

TEST(ParseRequest, DeadlineIsClampedNotRejected)
{
    ServeLimits limits;
    limits.max_deadline_s = 10.0;
    const ParsedRequest parsed = parseRequestLine(
        mcRequest(R"(,"deadline_s":9999)"), limits);
    ASSERT_TRUE(parsed.ok) << parsed.error.message;
    EXPECT_DOUBLE_EQ(parsed.request.deadline_s, 10.0);

    const ParsedRequest negative = parseRequestLine(
        mcRequest(R"(,"deadline_s":-1)"), limits);
    ASSERT_FALSE(negative.ok);
    EXPECT_EQ(negative.error.code, "invalid-request");
}

TEST(ParseRequest, GridIsSweepOnlyAndDefaultsToTenSteps)
{
    const ParsedRequest misplaced = parseRequestLine(
        mcRequest(R"(,"grid":[0.5])"), ServeLimits{});
    ASSERT_FALSE(misplaced.ok);
    EXPECT_EQ(misplaced.error.code, "invalid-request");

    std::string sweep = R"({"kind":"capacity_sweep",)";
    sweep += kValidDies;
    sweep += "}";
    const ParsedRequest defaulted = parseRequestLine(sweep, ServeLimits{});
    ASSERT_TRUE(defaulted.ok) << defaulted.error.message;
    ASSERT_EQ(defaulted.request.grid.size(), 10u);
    EXPECT_DOUBLE_EQ(defaulted.request.grid.front(), 0.1);
    EXPECT_DOUBLE_EQ(defaulted.request.grid.back(), 1.0);
}

TEST(ParseRequest, NumericFieldsRejectHostileValues)
{
    for (const char* extra :
         {R"(,"n_chips":0)", R"(,"n_chips":-5)", R"(,"samples":0)",
          R"(,"samples":2.5)", R"(,"band":0)", R"(,"band":1.0)",
          R"(,"seed":-1)", R"(,"no_cache":"yes")"}) {
        const ParsedRequest parsed =
            parseRequestLine(mcRequest(extra), ServeLimits{});
        EXPECT_FALSE(parsed.ok) << extra;
        if (!parsed.ok) {
            EXPECT_EQ(parsed.error.code, "invalid-request") << extra;
        }
    }
}

/**
 * Golden error replies: one bad line per rejection path of
 * parseRequestLine, with the exact errorReply text recorded before
 * the request path built its field names lazily. Every reply must stay
 * byte-identical, so a field name, a byte offset or an echoed id
 * that drifts fails here.
 */
const char* const kDie =
    R"({"name":"soc","process":"7nm","total_transistors":2.4e9,)"
    R"("unique_transistors":2e8})";
const std::string kDesign = std::string(R"({"dies":[)") + kDie + "]}";

/** @p item repeated @p count times, comma-separated. */
std::string
repeated(const std::string& item, std::size_t count)
{
    std::string out;
    for (std::size_t i = 0; i < count; ++i) {
        if (i > 0)
            out += ',';
        out += item;
    }
    return out;
}

std::string
request(const std::string& kind, const std::string& design = kDesign,
        const std::string& extra = "")
{
    return R"({"id":"g","kind":")" + kind + R"(","design":)" + design +
           extra + "}";
}

struct GoldenError
{
    const char* name;
    std::string line;
    std::string reply;
};

std::vector<GoldenError>
goldenErrors()
{
    return {
    {"line over the byte limit",
     std::string((1 << 20) + 1, ' '),
     R"({"id":"","status":"error","error":{"code":"limit-exceeded",)"
     R"("message":"request line of 1048577 bytes exceeds the )"
     R"(1048576-byte limit"}})"},
    {"empty line",
     R"()",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 0: unexpected end of )"
     R"(input"}})"},
    {"unterminated object",
     R"({)",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 1: unexpected end of )"
     R"(input"}})"},
    {"bare word",
     R"(not json)",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 0: invalid literal"}})"},
    {"missing value",
     R"({"id":})",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 6: invalid value"}})"},
    {"trailing comma",
     R"({"id":"g",})",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 10: expected '\"'"}})"},
    {"missing colon",
     R"({"id" "g"})",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 6: expected ':'"}})"},
    {"unterminated array",
     R"({"id":"g","grid":[1,2)",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 21: unexpected end of )"
     R"(input"}})"},
    {"trailing content",
     R"({"id":"g"} x)",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 11: trailing content after )"
     R"(JSON document"}})"},
    {"bad escape",
     R"({"id":"a\qb"})",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 10: invalid escape )"
     R"(character"}})"},
    {"bad unicode escape",
     R"({"id":"\u12x4"})",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 12: invalid \\u escape )"
     R"(digit"}})"},
    {"truncated unicode escape",
     R"({"id":"\u12)",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 9: truncated \\u escape"}})"},
    {"bad literal",
     R"({"no_cache":tru})",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 12: invalid literal"}})"},
    {"number with two points",
     R"({"id":"g","n_chips":1.2.3})",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 25: invalid number )"
     R"('1.2.3'"}})"},
    {"number with two minus signs",
     R"({"id":"g","n_chips":--1})",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 23: invalid number '--1'"}})"},
    {"number without exponent digits",
     R"({"id":"g","n_chips":1e})",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 22: invalid number '1e'"}})"},
    {"number overflow",
     R"({"id":"g","n_chips":1e400})",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 25: invalid number )"
     R"('1e400'"}})"},
    {"number underflow",
     R"({"id":"g","n_chips":1e-310})",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 26: invalid number )"
     R"('1e-310'"}})"},
    {"lone plus sign",
     R"({"id":"g","n_chips":+})",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 21: invalid number '+'"}})"},
    {"unexpected character",
     R"({"id":@})",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 6: invalid value"}})"},
    {"overlong string",
     R"({"id":")" + std::string(65537, 'a') + R"("})",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 65544: string longer than )"
     R"(65536 bytes"}})"},
    {"raw control character",
     "{\"id\":\"a\x01" "b\"}",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 8: raw control character in )"
     R"x(string (must be \\u-escaped)"}})x"},
    {"nesting too deep",
     R"({"id":"g","grid":)" + std::string(65, '[') +
         std::string(65, ']') + "}",
     R"({"id":"","status":"error","error":{"code":"malformed-json",)"
     R"("message":"JSON parse error at byte 80: nesting deeper than 64 )"
     R"(levels"}})"},
    {"not an object",
     R"([1,2])",
     R"({"id":"","status":"error","error":{"code":"invalid-request",)"
     R"("message":"request must be a JSON object"}})"},
    {"unknown request field",
     R"({"id":"g","kind":"mc_ttm","sample":512})",
     R"({"id":"","status":"error","error":{"code":"invalid-request",)"
     R"("message":"unknown field 'sample' in request"}})"},
    {"id not a string",
     R"({"id":5,"kind":"mc_ttm"})",
     R"({"id":"","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'id' must be a string"}})"},
    {"missing kind",
     R"({"id":"g"})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"request is missing 'kind'"}})"},
    {"kind not a string",
     R"({"id":"g","kind":7})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'kind' must be a string"}})"},
    {"unknown kind",
     R"({"id":"g","kind":"warp_drive"})",
     R"({"id":"g","status":"error","error":{"code":"unknown-kind",)"
     R"("message":"unknown request kind 'warp_drive'"}})"},
    {"missing design",
     R"({"id":"g","kind":"mc_ttm"})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"request is missing 'design'"}})"},
    {"design not an object",
     R"({"id":"g","kind":"mc_ttm","design":[]})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'design' must be an object"}})"},
    {"unknown design field",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}],"color":"red"}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"unknown field 'color' in design"}})"},
    {"design name not a string",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}],"name":1}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'design.name' must be a string"}})"},
    {"design weeks not a number",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}],"design_weeks":"soon"}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'design.design_weeks' must be a number"}})"},
    {"design missing dies",
     R"({"id":"g","kind":"mc_ttm","design":{"name":"x"}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"design is missing 'dies'"}})"},
    {"dies not an array",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":{}}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"design.dies must be an array"}})"},
    {"dies empty",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[]}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"design.dies must not be empty"}})"},
    {"too many dies",
     request("mc_ttm", "{\"dies\":[" + repeated(kDie, 65) + "]}"),
     R"({"id":"g","status":"error","error":{"code":"limit-exceeded",)"
     R"("message":"design has 65 dies, more than the limit of 64"}})"},
    {"invalid design",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":3e9,"yield_override":1.5}]}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-design",)"
     R"x("message":"design fails validation with 2 violation(s)",)x"
     R"("violations":["die 'soc': unique transistors cannot exceed )"
     R"(total transistors","die 'soc': yield override must be in (0, )"
     R"(1]"]}})"},
    {"die not an object",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[5]}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'dies[0]' must be an object"}})"},
    {"unknown die field",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8,"total_transitors":1e9}]}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"unknown field 'total_transitors' in dies[0]"}})"},
    {"die name not a string",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":true,)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'dies[0].name' must be a string"}})"},
    {"die missing process",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("total_transistors":2.4e9,"unique_transistors":2e8}]}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"dies[0] is missing 'process'"}})"},
    {"die process not a string",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":7,"total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'dies[0].process' must be a string"}})"},
    {"die missing total transistors",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","unique_transistors":2e8}]}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"dies[0] is missing 'total_transistors'"}})"},
    {"die total transistors not a number",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":"many",)"
     R"("unique_transistors":2e8}]}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'dies[0].total_transistors' must be a number"}})"},
    {"die missing unique transistors",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9}]}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"dies[0] is missing 'unique_transistors'"}})"},
    {"die unique transistors not a number",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":null}]}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'dies[0].unique_transistors' must be a )"
     R"(number"}})"},
    {"second die count not a number",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8},{"name":"soc","process":"7nm",)"
     R"("total_transistors":2.4e9,"unique_transistors":2e8,)"
     R"("count_per_package":"2"}]}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'dies[1].count_per_package' must be a number"}})"},
    {"die area not a number",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8,"area_mm2":[]}]}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'dies[0].area_mm2' must be a number"}})"},
    {"die min area not a number",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8,"min_area_mm2":{}}]}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'dies[0].min_area_mm2' must be a number"}})"},
    {"die yield not a number",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8,"yield_override":false}]}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'dies[0].yield_override' must be a number"}})"},
    {"market not an object",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"market":1})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'market' must be an object"}})"},
    {"unknown market field",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"market":{"capcity":{}}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"unknown field 'capcity' in market"}})"},
    {"global capacity negative",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"market":{"global_capacity":-0.5}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'market.global_capacity' must be >= 0"}})"},
    {"global capacity not a number",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"market":{"global_capacity":"full"}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'market.global_capacity' must be a number"}})"},
    {"capacity map not an object",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"market":{"capacity":[0.5]}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'market.capacity' must be an object"}})"},
    {"capacity map empty node",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"market":{"capacity":{"":0.5}}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"market.capacity contains an empty node name"}})"},
    {"capacity map value not a number",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},)"
     R"("market":{"capacity":{"7nm":"half"}}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'market.capacity.7nm' must be a number"}})"},
    {"capacity map value negative",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"market":{"capacity":{"7nm":-1}}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"market.capacity.7nm must be >= 0"}})"},
    {"queue weeks value negative",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"market":{"queue_weeks":{"7nm":-2}}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"market.queue_weeks.7nm must be >= 0"}})"},
    {"queue wafers value negative",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},)"
     R"("market":{"queue_wafers":{"5nm":-3}}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"market.queue_wafers.5nm must be >= 0"}})"},
    {"queue wafers value not a number",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},)"
     R"("market":{"queue_wafers":{"5nm":true}}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'market.queue_wafers.5nm' must be a number"}})"},
    {"n_chips zero",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"n_chips":0})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'n_chips' must be > 0"}})"},
    {"n_chips not a number",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"n_chips":"1e7"})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'n_chips' must be a number"}})"},
    {"seed fractional",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"seed":1.5})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'seed' must be a non-negative integer"}})"},
    {"seed negative",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"seed":-1})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'seed' must be >= 0"}})"},
    {"seed above 2^53",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"seed":1e16})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'seed' must be a non-negative integer"}})"},
    {"samples zero",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"samples":0})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'samples' must be >= 1"}})"},
    {"samples over the limit",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"samples":1048577})",
     R"({"id":"g","status":"error","error":{"code":"limit-exceeded",)"
     R"("message":"samples 1048577 exceeds the per-request limit of )"
     R"(1048576"}})"},
    {"band zero",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"band":0})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'band' must be > 0"}})"},
    {"band one",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"band":1})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"x("message":"field 'band' must be in (0, 1)"}})x"},
    {"ensemble on mc_ttm",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"ensemble":{}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'ensemble' is only valid for ensemble_ttm"}})"},
    {"ensemble spec invalid",
     R"({"id":"g","kind":"ensemble_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"ensemble":{"horizon_weeks":-1,)"
     R"("bogus":1}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"x("message":"ensemble spec fails validation with 1 problem(s)",)x"
     R"("violations":["unknown field 'bogus' in ensemble"]}})"},
    {"chiplet on mc_ttm",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"chiplet":{}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'chiplet' is only valid for chiplet_pareto"}})"},
    {"chiplet spec invalid",
     R"({"id":"g","kind":"chiplet_pareto",)"
     R"("design":{"dies":[{"name":"soc","process":"7nm",)"
     R"("total_transistors":2.4e9,"unique_transistors":2e8}]},)"
     R"("chiplet":{"partitions":[0],"nodes":5}})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"x("message":"chiplet spec fails validation with 1 problem(s)",)x"
     R"("violations":["chiplet.nodes must be an array of strings"]}})"},
    {"grid on mc_ttm",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"grid":[0.5]})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'grid' is only valid for capacity_sweep"}})"},
    {"grid empty",
     R"({"id":"g","kind":"capacity_sweep",)"
     R"("design":{"dies":[{"name":"soc","process":"7nm",)"
     R"("total_transistors":2.4e9,"unique_transistors":2e8}]},"grid":[]})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'grid' must be a non-empty array"}})"},
    {"grid not an array",
     R"({"id":"g","kind":"capacity_sweep",)"
     R"("design":{"dies":[{"name":"soc","process":"7nm",)"
     R"("total_transistors":2.4e9,"unique_transistors":2e8}]},)"
     R"("grid":0.5})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'grid' must be a non-empty array"}})"},
    {"grid over the limit",
     request("capacity_sweep", kDesign,
             R"(,"grid":[)" + repeated("0.5", 4097) + "]"),
     R"({"id":"g","status":"error","error":{"code":"limit-exceeded",)"
     R"("message":"grid of 4097 points exceeds the limit of 4096"}})"},
    {"grid element not positive",
     R"({"id":"g","kind":"capacity_sweep",)"
     R"("design":{"dies":[{"name":"soc","process":"7nm",)"
     R"("total_transistors":2.4e9,"unique_transistors":2e8}]},)"
     R"("grid":[0.5,1,-0.25]})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'grid[2]' must be > 0"}})"},
    {"grid element not a number",
     R"({"id":"g","kind":"capacity_sweep",)"
     R"("design":{"dies":[{"name":"soc","process":"7nm",)"
     R"("total_transistors":2.4e9,"unique_transistors":2e8}]},)"
     R"("grid":[0.5,"x"]})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'grid[1]' must be a number"}})"},
    {"deadline negative",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"deadline_s":-1})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'deadline_s' must be >= 0"}})"},
    {"no_cache not a boolean",
     R"({"id":"g","kind":"mc_ttm","design":{"dies":[{"name":"soc",)"
     R"("process":"7nm","total_transistors":2.4e9,)"
     R"("unique_transistors":2e8}]},"no_cache":"yes"})",
     R"({"id":"g","status":"error","error":{"code":"invalid-request",)"
     R"("message":"field 'no_cache' must be a boolean"}})"},
    };
}

TEST(ParseRequest, ErrorRepliesAreByteIdenticalToTheGoldens)
{
    const std::vector<GoldenError> goldens = goldenErrors();
    EXPECT_GE(goldens.size(), 80u);
    for (const GoldenError& golden : goldens) {
        const ParsedRequest parsed =
            parseRequestLine(golden.line, ServeLimits{});
        ASSERT_FALSE(parsed.ok) << golden.name;
        EXPECT_EQ(errorReply(parsed.error), golden.reply) << golden.name;
    }
}

TEST(ReplyBuilders, EveryReplyParsesBackAsOneJsonObject)
{
    RequestError error;
    error.id = "e1";
    error.code = "invalid-design";
    error.message = "bad";
    error.violations = {"first", "second"};
    const JsonValue error_doc = parseJson(errorReply(error));
    EXPECT_EQ(error_doc.at("id").asString(), "e1");
    EXPECT_EQ(error_doc.at("status").asString(), "error");
    EXPECT_EQ(error_doc.at("error").at("code").asString(),
              "invalid-design");
    EXPECT_EQ(error_doc.at("error").at("violations").asArray().size(), 2u);

    const JsonValue shed_doc = parseJson(overloadedReply("s1", 16, 16));
    EXPECT_EQ(shed_doc.at("status").asString(), "overloaded");
    EXPECT_EQ(shed_doc.at("error").at("code").asString(), "overloaded");

    const JsonValue drain_doc = parseJson(drainingReply("d1"));
    EXPECT_EQ(drain_doc.at("status").asString(), "draining");

    const JsonValue result_doc = parseJson(resultReply(
        "r1", RequestKind::McTtm, "ok", "hit", "k", R"({"mean":1.5})"));
    EXPECT_EQ(result_doc.at("status").asString(), "ok");
    EXPECT_EQ(result_doc.at("kind").asString(), "mc_ttm");
    EXPECT_EQ(result_doc.at("cache").asString(), "hit");
    EXPECT_DOUBLE_EQ(result_doc.at("result").at("mean").asNumber(), 1.5);
}

TEST(ReplyBuilders, RepliesAreSingleLines)
{
    // The transport frames replies with exactly one trailing newline;
    // a builder that embeds its own would tear the NDJSON stream.
    RequestError error;
    error.message = "multi\nline message stays encoded";
    for (const std::string& reply :
         {errorReply(error), overloadedReply("x", 1, 1), drainingReply("x"),
          resultReply("x", RequestKind::Health, "ok", "", "", "{}")})
        EXPECT_EQ(reply.find('\n'), std::string::npos) << reply;
}

} // namespace
} // namespace ttmcas::serve
