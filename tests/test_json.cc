/**
 * @file
 * Tests for the JSON stats exporter.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "stats/json.hh"

namespace ecdp
{
namespace
{

TEST(Json, EscapesSpecialCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape("a\tb"), "a\\tb");
}

TEST(Json, WritesAllTopLevelFields)
{
    RunStats stats;
    stats.workload = "health";
    stats.cycles = Cycle{1000};
    stats.instructions = 4000;
    stats.ipc = 4.0;
    stats.bpki = 12.5;
    stats.busTransactions = 50;
    stats.l2DemandMisses = 7;
    stats.engineStats.resize(2);
    stats.engineStats[1].issued = 10;
    stats.engineStats[1].used = 6;
    stats.engineStats[1].late = 2;

    std::ostringstream oss;
    writeRunStatsJson(oss, stats, "full");
    std::string json = oss.str();
    for (const char *needle :
         {"\"workload\":\"health\"", "\"config\":\"full\"",
          "\"cycles\":1000", "\"instructions\":4000", "\"ipc\":4",
          "\"bpki\":12.5", "\"busTransactions\":50",
          "\"l2DemandMisses\":7", "\"primary\":", "\"lds\":",
          "\"issued\":10", "\"used\":6", "\"late\":2",
          "\"finalLevels\""}) {
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing " << needle << " in " << json;
    }
}

TEST(Json, ObjectIsBalanced)
{
    RunStats stats;
    stats.workload = "x";
    std::ostringstream oss;
    writeRunStatsJson(oss, stats);
    std::string json = oss.str();
    int depth = 0;
    for (char c : json) {
        depth += c == '{';
        depth -= c == '}';
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST(Json, OmitsConfigWhenUnlabelled)
{
    RunStats stats;
    stats.workload = "x";
    std::ostringstream oss;
    writeRunStatsJson(oss, stats);
    EXPECT_EQ(oss.str().find("\"config\""), std::string::npos);
}

TEST(JsonParser, ParsesScalarsObjectsAndArrays)
{
    JsonValue doc = parseJson(
        R"({"a": 1, "b": [true, false, null], "c": {"d": "x\ny"},)"
        R"( "e": -2.5})");
    EXPECT_EQ(doc.at("a").asU64(), 1u);
    const auto &arr = doc.at("b").asArray();
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_TRUE(arr[0].asBool());
    EXPECT_FALSE(arr[1].asBool());
    EXPECT_TRUE(arr[2].isNull());
    EXPECT_EQ(doc.at("c").at("d").asString(), "x\ny");
    EXPECT_EQ(doc.at("e").asDouble(), -2.5);
    EXPECT_EQ(doc.at("e").asI64(), -2);
    EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParser, PreservesFullUint64Precision)
{
    // 2^64 - 1 is not representable as a double; the parser must keep
    // the source text so integer reads stay exact.
    JsonValue doc = parseJson(R"({"n": 18446744073709551615})");
    EXPECT_EQ(doc.at("n").asU64(), 18446744073709551615ull);
}

TEST(JsonParser, RejectsMalformedInput)
{
    EXPECT_THROW(parseJson("{"), JsonError);
    EXPECT_THROW(parseJson("{\"a\":1,}"), JsonError);
    EXPECT_THROW(parseJson("{\"a\":1} trailing"), JsonError);
    EXPECT_THROW(parseJson("nope"), JsonError);
    EXPECT_FALSE(tryParseJson("[1,").has_value());
    EXPECT_TRUE(tryParseJson("[1, 2]").has_value());
}

TEST(JsonParserEdge, DeepNestingUnderTheCapParses)
{
    // 150 levels: deep, but under the 192-level guard.
    std::string doc;
    for (int i = 0; i < 150; ++i)
        doc += "[";
    doc += "42";
    for (int i = 0; i < 150; ++i)
        doc += "]";
    JsonValue v = parseJson(doc);
    for (int i = 0; i < 150; ++i)
        v = v.asArray().at(0);
    EXPECT_EQ(v.asI64(), 42);
}

TEST(JsonParserEdge, NestingBeyondTheCapFailsNotCrashes)
{
    // A hostile "[[[[..." must throw JsonError long before the
    // recursion exhausts the stack — tryParseJson can catch an
    // exception, not a stack overflow.
    const std::string bombs[] = {
        std::string(100000, '['),
        [] {
            std::string s;
            for (int i = 0; i < 100000; ++i)
                s += "{\"a\":";
            return s;
        }(),
    };
    for (const std::string &bomb : bombs) {
        EXPECT_THROW(parseJson(bomb), JsonError);
        EXPECT_FALSE(tryParseJson(bomb).has_value());
    }
}

TEST(JsonParserEdge, DecodesEveryEscapeAndRejectsBadOnes)
{
    EXPECT_EQ(parseJson("\"a\\\"b\\\\c\\/d\\b\\f\\n\\r\\t\"")
                  .asString(),
              "a\"b\\c/d\b\f\n\r\t");
    // \u escapes: ASCII, 2-byte and 3-byte UTF-8 ranges.
    EXPECT_EQ(parseJson("\"\\u0041\"").asString(), "A");
    EXPECT_EQ(parseJson("\"\\u00e9\"").asString(), "\xc3\xa9");
    EXPECT_EQ(parseJson("\"\\u20ac\"").asString(),
              "\xe2\x82\xac");
    EXPECT_THROW(parseJson("\"\\u12g4\""), JsonError);
    EXPECT_THROW(parseJson("\"\\u12\""), JsonError);
    EXPECT_THROW(parseJson("\"\\q\""), JsonError);
    EXPECT_THROW(parseJson("\"unterminated"), JsonError);
    EXPECT_THROW(parseJson("\"trailing backslash\\"), JsonError);
}

TEST(JsonParserEdge, HugeAndEdgeNumbers)
{
    // Full uint64 range survives via the preserved number text.
    EXPECT_EQ(parseJson("18446744073709551615").asU64(),
              18446744073709551615ull);
    EXPECT_EQ(parseJson("-9223372036854775808").asI64(),
              INT64_MIN);
    // Beyond-double magnitudes parse (text preserved; asDouble
    // saturates to inf per strtod) rather than erroring out.
    const JsonValue big = parseJson("1e400");
    EXPECT_EQ(big.numberText(), "1e400");
    EXPECT_TRUE(std::isinf(big.asDouble()));
    EXPECT_EQ(parseJson("1e-400").asDouble(), 0.0);
    EXPECT_DOUBLE_EQ(parseJson("-1.25e2").asDouble(), -125.0);
    // Malformed shapes all throw.
    EXPECT_THROW(parseJson("1."), JsonError);
    EXPECT_THROW(parseJson(".5"), JsonError);
    EXPECT_THROW(parseJson("1e"), JsonError);
    EXPECT_THROW(parseJson("--1"), JsonError);
    EXPECT_THROW(parseJson("+1"), JsonError);
    EXPECT_THROW(parseJson("01x"), JsonError);
}

TEST(JsonParserEdge, TrailingGarbageAlwaysRejected)
{
    EXPECT_THROW(parseJson("{} {}"), JsonError);
    EXPECT_THROW(parseJson("[1]2"), JsonError);
    EXPECT_THROW(parseJson("1 1"), JsonError);
    // Embedded NUL after a valid document is trailing garbage too.
    EXPECT_THROW(parseJson(std::string("null\0x", 6)), JsonError);
    EXPECT_THROW(parseJson("\"s\"\"t\""), JsonError);
    // ... but trailing whitespace is fine.
    EXPECT_EQ(parseJson("  7  \n\t").asI64(), 7);
}

TEST(JsonParserEdge, DuplicateKeysFirstWins)
{
    const JsonValue doc =
        parseJson("{\"k\":1,\"k\":2,\"other\":3}");
    EXPECT_EQ(doc.at("k").asI64(), 1);
    EXPECT_EQ(doc.at("other").asI64(), 3);
    EXPECT_EQ(doc.asObject().size(), 2u);
}

TEST(JsonParserEdge, EmptyAndWhitespaceInputs)
{
    EXPECT_THROW(parseJson(""), JsonError);
    EXPECT_THROW(parseJson("   \n\t "), JsonError);
    EXPECT_THROW(parseJson("[,]"), JsonError);
    EXPECT_THROW(parseJson("{,}"), JsonError);
    EXPECT_THROW(parseJson("{\"a\"}"), JsonError);
    EXPECT_THROW(parseJson("{\"a\":}"), JsonError);
    EXPECT_THROW(parseJson("{1:2}"), JsonError);
    EXPECT_EQ(parseJson("{ }").asObject().size(), 0u);
    EXPECT_EQ(parseJson("[ ]").asArray().size(), 0u);
}

TEST(JsonParser, RoundTripsTheStatsWriter)
{
    RunStats stats;
    stats.workload = "health";
    stats.cycles = Cycle{123456789};
    stats.instructions = 42;
    stats.ipc = 0.1234567890123456;
    stats.timedOut = true;
    stats.engineStats.resize(2);
    stats.engineStats[0].issued = 7;
    stats.engineStats[1].dropped = 3;
    std::ostringstream oss;
    writeRunStatsJson(oss, stats, "full");
    JsonValue doc = parseJson(oss.str());
    EXPECT_EQ(doc.at("workload").asString(), "health");
    EXPECT_EQ(doc.at("cycles").asU64(), 123456789u);
    EXPECT_TRUE(doc.at("timedOut").asBool());
    const JsonValue &pref = doc.at("prefetchers");
    EXPECT_EQ(pref.at("primary").at("issued").asU64(), 7u);
    EXPECT_EQ(pref.at("lds").at("dropped").asU64(), 3u);
}

} // namespace
} // namespace ecdp
