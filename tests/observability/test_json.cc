#include "support/json.hh"

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "support/error.hh"

namespace ttmcas {
namespace {

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("line\nbreak"), "line\\nbreak");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonNumberTest, IntegersHaveNoDecimalPoint)
{
    EXPECT_EQ(jsonNumber(42.0), "42");
    EXPECT_EQ(jsonNumber(-7.0), "-7");
    EXPECT_EQ(jsonNumber(0.0), "0");
}

TEST(JsonNumberTest, NonFiniteBecomesNull)
{
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()),
              "null");
}

TEST(JsonNumberTest, IntegralValuesBeyondLongLongUseExponentForm)
{
    // Integral doubles outside long long's range (a client can send
    // "n_chips": 1e22) must skip the integer cast, which would be
    // undefined behaviour, and render through %.17g.
    for (const double value : {1e22, -9.3e18, 1e300}) {
        char expected[32];
        std::snprintf(expected, sizeof(expected), "%.17g", value);
        EXPECT_EQ(jsonNumber(value), expected) << value;
    }
}

TEST(JsonWriterTest, WritesNestedDocument)
{
    JsonWriter json;
    json.beginObject();
    json.field("name", "run");
    json.field("count", std::uint64_t{3});
    json.key("values");
    json.beginArray();
    json.value(1.5);
    json.value(true);
    json.null();
    json.endArray();
    json.endObject();
    EXPECT_EQ(json.str(),
              "{\"name\":\"run\",\"count\":3,"
              "\"values\":[1.5,true,null]}");
}

TEST(JsonWriterTest, SeparatesSiblingsAtEveryDepth)
{
    // The writer tracks "a value was written" per open container; a
    // deep document with siblings at each level checks the bookkeeping,
    // and a finished writer hands its buffer over by move.
    constexpr int kDepth = 40;
    JsonWriter json;
    std::string expected;
    for (int depth = 0; depth < kDepth; ++depth) {
        json.beginArray();
        json.value(std::uint64_t{1});
        expected += "[1,";
    }
    json.value(std::uint64_t{2});
    expected += "2";
    for (int depth = kDepth - 1; depth >= 0; --depth) {
        json.endArray();
        expected += "]";
        if (depth > 0) {
            json.value(std::uint64_t{3});
            expected += ",3";
        }
    }
    EXPECT_EQ(json.str(), expected);
    EXPECT_EQ(std::move(json).str(), expected);
}

TEST(JsonWriterTest, OutputParsesBack)
{
    JsonWriter json;
    json.beginObject();
    json.field("pi", 3.25);
    json.field("tag", "a\"b");
    json.endObject();
    const JsonValue parsed = parseJson(json.str());
    EXPECT_DOUBLE_EQ(parsed.at("pi").asNumber(), 3.25);
    EXPECT_EQ(parsed.at("tag").asString(), "a\"b");
}

TEST(JsonParseTest, ParsesAllValueKinds)
{
    const JsonValue value = parseJson(
        R"({"s":"x","n":-2.5e2,"b":false,"z":null,"a":[1,2],"o":{"k":1}})");
    EXPECT_EQ(value.kind(), JsonValue::Kind::Object);
    EXPECT_EQ(value.at("s").asString(), "x");
    EXPECT_DOUBLE_EQ(value.at("n").asNumber(), -250.0);
    EXPECT_FALSE(value.at("b").asBool());
    EXPECT_TRUE(value.at("z").isNull());
    EXPECT_EQ(value.at("a").asArray().size(), 2u);
    EXPECT_DOUBLE_EQ(value.at("o").at("k").asNumber(), 1.0);
}

TEST(JsonParseTest, KeysKeepDocumentOrder)
{
    const JsonValue value = parseJson(R"({"b":1,"a":2})");
    ASSERT_EQ(value.members().size(), 2u);
    EXPECT_EQ(value.members()[0].key(), "b");
    EXPECT_EQ(value.members()[1].key(), "a");
}

TEST(JsonParseTest, DecodesUnicodeEscapes)
{
    // \u00e9 is U+00E9; the parser re-encodes BMP escapes as UTF-8.
    const JsonValue value = parseJson("[\"\\u00e9\"]");
    EXPECT_EQ(value.asArray()[0].asString(), "\xc3\xa9");
}

TEST(JsonParseTest, RejectsMalformedInput)
{
    EXPECT_THROW(parseJson(""), ModelError);
    EXPECT_THROW(parseJson("{"), ModelError);
    EXPECT_THROW(parseJson("[1,]"), ModelError);
    EXPECT_THROW(parseJson("{\"a\" 1}"), ModelError);
    EXPECT_THROW(parseJson("1 trailing"), ModelError);
    EXPECT_THROW(parseJson("nul"), ModelError);
}

TEST(JsonParseTest, AccessorsRejectKindMismatch)
{
    const JsonValue value = parseJson("[1]");
    EXPECT_THROW(value.asString(), ModelError);
    EXPECT_THROW(value.at("missing"), ModelError);
    EXPECT_THROW(value.asArray()[0].asBool(), ModelError);
}

} // namespace
} // namespace ttmcas
