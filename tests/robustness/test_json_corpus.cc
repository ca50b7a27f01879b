/**
 * @file
 * Adversarial corpus for the strict JSON parser. The parser sits on
 * the crash-recovery path (checkpoints and manifests are re-read after
 * kills and deadline exits), so every malformed byte stream must
 * surface as a structured ModelError — never a crash, a hang, or a
 * silently wrong document. Covers truncation at every prefix, nesting
 * past the recursion cap, bad escapes, duplicate keys, non-finite
 * number literals, and a deterministic random-mutation corpus.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/error.hh"
#include "support/json.hh"

namespace ttmcas {
namespace {

/** A representative document exercising every JSON construct. */
std::string
referenceDocument()
{
    JsonWriter json;
    json.beginObject();
    json.field("tool", "ttm_cli");
    json.field("seed", std::uint64_t{18446744073709551615ULL});
    json.field("fraction", 0.3333333333333333);
    json.field("negative", -12.5e-3);
    json.field("flag", true);
    json.key("nothing");
    json.null();
    json.key("kernels");
    json.beginArray();
    json.beginObject();
    json.field("kernel", "sample\tTtm \"quoted\" \\ slash");
    json.field("points", std::uint64_t{64});
    json.endObject();
    json.value(1.0);
    json.value("bare");
    json.endArray();
    json.endObject();
    return json.str();
}

TEST(JsonCorpus, ReferenceDocumentRoundTrips)
{
    const JsonValue doc = parseJson(referenceDocument());
    EXPECT_EQ(doc.at("tool").asString(), "ttm_cli");
    EXPECT_EQ(doc.at("kernels").asArray().size(), 3u);
    EXPECT_TRUE(doc.at("nothing").isNull());
    EXPECT_EQ(doc.at("kernels").asArray()[0].at("kernel").asString(),
              "sample\tTtm \"quoted\" \\ slash");
}

TEST(JsonCorpus, EveryTruncationFailsStructurally)
{
    const std::string document = referenceDocument();
    for (std::size_t len = 0; len < document.size(); ++len) {
        const std::string prefix = document.substr(0, len);
        EXPECT_THROW(parseJson(prefix), ModelError)
            << "prefix length " << len << ": " << prefix;
    }
    // The untruncated document still parses.
    EXPECT_NO_THROW(parseJson(document));
}

TEST(JsonCorpus, NestingBelowTheCapParses)
{
    // 250 nested arrays: under the 256-level recursion cap.
    std::string document;
    for (int i = 0; i < 250; ++i)
        document += '[';
    document += '0';
    for (int i = 0; i < 250; ++i)
        document += ']';
    const JsonValue doc = parseJson(document);
    EXPECT_EQ(doc.asArray().size(), 1u);
}

TEST(JsonCorpus, NestingPastTheCapFailsInsteadOfOverflowing)
{
    // A pathological opener run must hit the structured depth error,
    // not exhaust the call stack.
    for (const std::size_t depth : {std::size_t{257}, std::size_t{2000},
                                    std::size_t{100000}}) {
        std::string document(depth, '[');
        EXPECT_THROW(parseJson(document), ModelError) << depth;
        std::string objects;
        for (std::size_t i = 0; i < depth; ++i)
            objects += "{\"k\":";
        EXPECT_THROW(parseJson(objects), ModelError) << depth;
    }
}

TEST(JsonCorpus, BadEscapesAreRejected)
{
    const char* corpus[] = {
        R"("\x41")",   // hex escape is not JSON
        R"("\ ")",     // escaped space
        R"("\u12")",   // truncated \u
        R"("\u12G4")", // non-hex \u digit
        R"("\")",      // escape then end of input
        R"("abc)",     // unterminated string
    };
    for (const char* text : corpus)
        EXPECT_THROW(parseJson(text), ModelError) << text;
    // The escapes the grammar does define all decode.
    const JsonValue ok = parseJson(R"("\"\\\/\b\f\n\r\tA")");
    EXPECT_EQ(ok.asString(), "\"\\/\b\f\n\r\tA");
}

TEST(JsonCorpus, DuplicateKeysLastWins)
{
    const JsonValue doc = parseJson(R"({"a":1,"b":2,"a":3})");
    ASSERT_EQ(doc.members().size(), 2u);
    // The last value takes the first occurrence's place.
    EXPECT_EQ(doc.members()[0].key(), "a");
    EXPECT_EQ(doc.at("a").asNumber(), 3.0);
    EXPECT_EQ(doc.at("b").asNumber(), 2.0);
}

TEST(JsonCorpus, NonFiniteNumberLiteralsAreRejected)
{
    const char* corpus[] = {
        "NaN", "nan",     "Infinity", "-Infinity",
        "inf", "-inf",    "1e999",    "-1e999",
        "0x10", "1.2.3",  "--1",      "1e",
        ".",   "-",       "",
    };
    for (const char* text : corpus)
        EXPECT_THROW(parseJson(text), ModelError) << "'" << text << "'";
}

TEST(JsonCorpus, TrailingGarbageIsRejected)
{
    EXPECT_THROW(parseJson("{} x"), ModelError);
    EXPECT_THROW(parseJson("1 2"), ModelError);
    EXPECT_THROW(parseJson("[1],"), ModelError);
}

TEST(JsonCorpus, RandomMutationsNeverEscapeTheErrorContract)
{
    // Deterministic splitmix64 byte source: the corpus is identical on
    // every run and every platform.
    std::uint64_t state = 0x1234abcd;
    const auto next = [&state]() {
        state += 0x9e3779b97f4a7c15ULL;
        std::uint64_t x = state;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    };

    const std::string reference = referenceDocument();
    std::size_t parsed = 0;
    std::size_t rejected = 0;
    for (int round = 0; round < 2000; ++round) {
        std::string mutated = reference;
        // 1-4 byte mutations: overwrite, duplicate, or delete.
        const std::size_t edits = 1 + next() % 4;
        for (std::size_t e = 0; e < edits && !mutated.empty(); ++e) {
            const std::size_t at = next() % mutated.size();
            switch (next() % 3) {
            case 0:
                mutated[at] = static_cast<char>(next() % 256);
                break;
            case 1:
                mutated.insert(at, 1, static_cast<char>(next() % 128));
                break;
            default: mutated.erase(at, 1); break;
            }
        }
        try {
            const JsonValue doc = parseJson(mutated);
            (void)doc;
            ++parsed;
        } catch (const ModelError&) {
            ++rejected; // the only acceptable failure mode
        }
    }
    EXPECT_EQ(parsed + rejected, 2000u);
    // Sanity: the corpus actually exercised the error paths.
    EXPECT_GT(rejected, 100u);
}

// --- Server envelope corpus: the limits ttm_serve applies to wire
// input. Every case below is something a hostile or broken client can
// actually send over the socket; each must produce a structured
// ModelError, never an allocation blow-up or a stack overflow.

TEST(JsonCorpus, WireLimitsRejectOversizedInput)
{
    const JsonLimits limits = JsonLimits::untrustedWire(64);
    // A document one byte over the cap fails before any parsing work.
    std::string oversized = "[";
    oversized += std::string(64, ' ');
    oversized += "]";
    EXPECT_THROW(parseJson(oversized, limits), ModelError);
    // At the cap it still parses.
    std::string at_cap = "[1]";
    at_cap += std::string(64 - at_cap.size(), ' ');
    EXPECT_NO_THROW(parseJson(at_cap, limits));
    // Default limits keep the historical unbounded behavior.
    EXPECT_NO_THROW(parseJson(oversized));
}

TEST(JsonCorpus, WireLimitsRejectOverlongStrings)
{
    JsonLimits limits = JsonLimits::untrustedWire();
    limits.max_string_bytes = 8;
    EXPECT_NO_THROW(parseJson(R"("12345678")", limits));
    EXPECT_THROW(parseJson(R"("123456789")", limits), ModelError);
    // Keys count too: a giant key is the same attack as a giant value.
    EXPECT_THROW(parseJson(R"({"123456789":1})", limits), ModelError);
    // The limit applies to the *decoded* length: "\t\t\t\t\t\t\t\t"
    // spells 16 source bytes inside the quotes but decodes to 8.
    EXPECT_NO_THROW(parseJson(R"("\t\t\t\t\t\t\t\t")", limits));
    EXPECT_THROW(parseJson(R"("\t\t\t\t\t\t\t\t\t")", limits),
                 ModelError);
}

TEST(JsonCorpus, WireLimitsCapNestingBelowTheTrustedDepth)
{
    const JsonLimits limits = JsonLimits::untrustedWire();
    // 64 levels is the wire cap; 100 parses fine under trusted limits
    // but must fail as wire input.
    std::string document(100, '[');
    document += '0';
    document += std::string(100, ']');
    EXPECT_NO_THROW(parseJson(document));
    EXPECT_THROW(parseJson(document, limits), ModelError);
    std::string shallow(63, '[');
    shallow += '0';
    shallow += std::string(63, ']');
    EXPECT_NO_THROW(parseJson(shallow, limits));
}

TEST(JsonCorpus, WireLimitsRejectRawControlCharacters)
{
    const JsonLimits limits = JsonLimits::untrustedWire();
    std::string raw_tab = "\"a\tb\"";
    std::string raw_nul = std::string("\"a") + '\0' + "b\"";
    // Trusted parsing tolerates the raw tab (legacy artifacts).
    EXPECT_NO_THROW(parseJson(raw_tab));
    // Wire parsing follows RFC 8259 and rejects both.
    EXPECT_THROW(parseJson(raw_tab, limits), ModelError);
    EXPECT_THROW(parseJson(raw_nul, limits), ModelError);
    // The escaped forms remain fine.
    EXPECT_NO_THROW(parseJson(R"("a\tb c")", limits));
}

TEST(JsonCorpus, WireLimitsKeepStructuralRejections)
{
    // The envelope failures ttm_serve sees most: truncation mid-object
    // and duplicate keys. Truncation must still throw under wire
    // limits; duplicate keys keep last-wins semantics (the request
    // validator layers field checks on top).
    const JsonLimits limits = JsonLimits::untrustedWire();
    const std::string document = referenceDocument();
    for (const std::size_t len :
         {std::size_t{1}, document.size() / 2, document.size() - 1})
        EXPECT_THROW(parseJson(document.substr(0, len), limits),
                     ModelError)
            << len;
    const JsonValue doc =
        parseJson(R"({"id":"a","id":"b"})", limits);
    EXPECT_EQ(doc.at("id").asString(), "b");
}

TEST(JsonCorpus, DeepRandomDocumentsRoundTripThroughTheWriter)
{
    std::uint64_t state = 0xfeedface;
    const auto next = [&state]() {
        state += 0x9e3779b97f4a7c15ULL;
        std::uint64_t x = state;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    };

    // Random writer-built trees parse back with the same shape.
    for (int round = 0; round < 50; ++round) {
        JsonWriter json;
        std::size_t leaves = 0;
        const std::function<void(int)> build = [&](int depth) {
            if (depth >= 6 || next() % 4 == 0) {
                json.value(static_cast<double>(next() % 1000) / 8.0);
                ++leaves;
                return;
            }
            json.beginArray();
            const std::size_t children = 1 + next() % 3;
            for (std::size_t i = 0; i < children; ++i)
                build(depth + 1);
            json.endArray();
        };
        build(0);
        const std::string text = json.str();
        const JsonValue doc = parseJson(text);
        std::size_t found = 0;
        const std::function<void(const JsonValue&)> count =
            [&](const JsonValue& value) {
                if (value.kind() == JsonValue::Kind::Number) {
                    ++found;
                    return;
                }
                for (const JsonValue& child : value.asArray())
                    count(child);
            };
        count(doc);
        EXPECT_EQ(found, leaves) << text;
    }
}

} // namespace
} // namespace ttmcas
