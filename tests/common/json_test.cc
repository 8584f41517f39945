/** Tests for the JSON value model. */

#include <gtest/gtest.h>

#include <limits>

#include "common/json.hh"

using namespace dcg;

TEST(Json, ParsesScalars)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(JsonValue::parse("42", v, err)) << err;
    EXPECT_EQ(v.asU64(), 42u);
    ASSERT_TRUE(JsonValue::parse("-7", v, err));
    EXPECT_EQ(v.asI64(), -7);
    ASSERT_TRUE(JsonValue::parse("1.5", v, err));
    EXPECT_DOUBLE_EQ(v.asNumber(), 1.5);
    ASSERT_TRUE(JsonValue::parse("true", v, err));
    EXPECT_TRUE(v.asBool());
    ASSERT_TRUE(JsonValue::parse("null", v, err));
    EXPECT_TRUE(v.isNull());
    ASSERT_TRUE(JsonValue::parse("\"a\\nb\"", v, err));
    EXPECT_EQ(v.asString(), "a\nb");
}

TEST(Json, ParsesNestedStructures)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(
        "{\"op\": \"submit\", \"grid\": {\"benchmarks\": [\"gzip\","
        " \"mcf\"], \"insts\": 4000}}",
        v, err))
        << err;
    EXPECT_EQ(v.get("op").asString(), "submit");
    const JsonValue &grid = v.get("grid");
    ASSERT_TRUE(grid.isObject());
    ASSERT_EQ(grid.get("benchmarks").items().size(), 2u);
    EXPECT_EQ(grid.get("benchmarks").items()[1].asString(), "mcf");
    EXPECT_EQ(grid.get("insts").asU64(), 4000u);
    EXPECT_TRUE(grid.get("no_such_key").isNull());
}

TEST(Json, RejectsMalformedInput)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(JsonValue::parse("", v, err));
    EXPECT_FALSE(JsonValue::parse("{\"a\": }", v, err));
    EXPECT_FALSE(JsonValue::parse("[1, 2", v, err));
    EXPECT_FALSE(JsonValue::parse("\"unterminated", v, err));
    EXPECT_FALSE(JsonValue::parse("{} trailing", v, err));
    EXPECT_FALSE(JsonValue::parse("nulll", v, err));
    EXPECT_FALSE(err.empty());
}

TEST(Json, RejectsPathologicalNesting)
{
    JsonValue v;
    std::string err;

    // 1 MiB of '[' — a request-line-sized stack bomb.
    EXPECT_FALSE(
        JsonValue::parse(std::string(std::size_t{1} << 20, '['), v, err));
    EXPECT_NE(err.find("nesting"), std::string::npos) << err;

    // A deep {"a": chain, closed properly, is rejected just the same.
    std::string chain;
    for (int i = 0; i < 100000; ++i)
        chain += "{\"a\":";
    chain += "0";
    chain += std::string(100000, '}');
    err.clear();
    EXPECT_FALSE(JsonValue::parse(chain, v, err));
    EXPECT_NE(err.find("nesting"), std::string::npos) << err;

    // Exactly at the limit still parses; one level more does not.
    const unsigned depth = JsonValue::kMaxDepth;
    EXPECT_TRUE(JsonValue::parse(std::string(depth, '[') +
                                     std::string(depth, ']'),
                                 v, err))
        << err;
    EXPECT_FALSE(JsonValue::parse(std::string(depth + 1, '[') +
                                      std::string(depth + 1, ']'),
                                  v, err));
}

TEST(Json, PreservesNumberTokensVerbatim)
{
    // The --server path depends on numbers surviving a parse/dump
    // round-trip token-for-token (max_digits10 doubles included).
    const std::string text =
        "[0.10000000000000001, 1.7976931348623157e+308, "
        "18446744073709551615, -3]";
    JsonValue v;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(text, v, err)) << err;
    EXPECT_EQ(v.dump(), "[0.10000000000000001, 1.7976931348623157e+308,"
                        " 18446744073709551615, -3]");
    EXPECT_EQ(v.items()[2].asU64(), 18446744073709551615ull);
}

TEST(Json, RejectsNumbersThatOverflowADouble)
{
    JsonValue v;
    std::string err;
    for (const char *text : {"1e999", "-1e999", "[1, 2e400]"}) {
        EXPECT_FALSE(JsonValue::parse(text, v, err)) << text;
        EXPECT_NE(err.find("overflows"), std::string::npos) << err;
    }
    // The largest finite double and the smallest subnormal (which
    // strtod flags with ERANGE too) still parse, exactly.
    EXPECT_TRUE(JsonValue::parse("1.7976931348623157e+308", v, err))
        << err;
    const double tiny = std::numeric_limits<double>::denorm_min();
    ASSERT_TRUE(JsonValue::parse(JsonValue::number(tiny).dump(), v, err))
        << err;
    EXPECT_EQ(v.asNumber(), tiny);
}

TEST(Json, StrictU64TakesOnlyNonNegativeIntegerTokens)
{
    JsonValue v;
    std::string err;
    std::uint64_t n = 0;
    for (const char *text : {"-5", "3.5", "1e30", "18446744073709551616",
                             "\"5\"", "null"}) {
        ASSERT_TRUE(JsonValue::parse(text, v, err)) << text;
        EXPECT_FALSE(v.toU64(n)) << text;
        EXPECT_EQ(v.asU64(42), 42u) << text;
    }
    ASSERT_TRUE(JsonValue::parse("18446744073709551615", v, err));
    ASSERT_TRUE(v.toU64(n));
    EXPECT_EQ(n, 18446744073709551615ull);
}

TEST(Json, BuildsAndDumpsObjects)
{
    JsonValue o = JsonValue::object();
    o.set("op", JsonValue::string("status"));
    o.set("id", JsonValue::integer(std::uint64_t{7}));
    o.set("ok", JsonValue::boolean(true));
    EXPECT_EQ(o.dump(), "{\"op\": \"status\", \"id\": 7, \"ok\": true}");

    // set() replaces in place, preserving member order.
    o.set("op", JsonValue::string("result"));
    EXPECT_EQ(o.dump(),
              "{\"op\": \"result\", \"id\": 7, \"ok\": true}");
}

TEST(Json, EscapesStrings)
{
    EXPECT_EQ(JsonValue::encodeString("a\"b\\c\nd"),
              "\"a\\\"b\\\\c\\nd\"");
    JsonValue v;
    std::string err;
    ASSERT_TRUE(JsonValue::parse("\"\\u0041\\u00e9\"", v, err)) << err;
    EXPECT_EQ(v.asString(), "A\xc3\xa9");
}
