#include "util/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace antdense::util {
namespace {

TEST(JsonValue, DumpsScalars) {
  EXPECT_EQ(JsonValue().dump(), "null");
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue(false).dump(), "false");
  EXPECT_EQ(JsonValue(std::uint64_t{42}).dump(), "42");
  EXPECT_EQ(JsonValue(-7.0).dump(), "-7");
  EXPECT_EQ(JsonValue(0.5).dump(), "0.5");
  EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
}

// The number contract, pinned byte for byte: integral values below 2^53
// print as integers (negative zero keeps its sign, as printf's %.0f
// spells it) and everything else prints as printf's %.17g.
TEST(JsonValue, NumberBytesArePinned) {
  const struct {
    double value;
    const char* bytes;
  } table[] = {
      {0.1, "0.10000000000000001"},
      {0.145, "0.14499999999999999"},
      {0.095, "0.095000000000000001"},
      {1.0 / 3, "0.33333333333333331"},
      {-2.5e-7, "-2.4999999999999999e-07"},
      {-0.0, "-0"},
      {0.0, "0"},
      {9007199254740991.0, "9007199254740991"},   // 2^53 - 1
      {-9007199254740991.0, "-9007199254740991"},
      {9007199254740992.0, "9007199254740992"},   // 2^53, via %.17g
      {1e21, "1e+21"},
      {5e-324, "4.9406564584124654e-324"},
      {DBL_MAX, "1.7976931348623157e+308"},
      {-DBL_MAX, "-1.7976931348623157e+308"},
  };
  for (const auto& row : table) {
    SCOPED_TRACE(row.bytes);
    EXPECT_EQ(JsonValue(row.value).dump(), row.bytes);
  }
}

/// printf reference for the number contract; the writer must match it
/// byte for byte on every finite double.
std::string printf_reference(double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

/// Seeded differential set: finite random bit patterns (every exponent,
/// subnormals included), c/t ratios like the density estimates a result
/// carries, and integers around the 2^53 switch-over.
std::vector<double> differential_set() {
  std::mt19937_64 gen(20160725);
  std::vector<double> values;
  while (values.size() < 100000) {
    const double v = std::bit_cast<double>(gen());
    if (std::isfinite(v)) {
      values.push_back(v);
    }
  }
  std::uniform_int_distribution<std::uint64_t> collisions(0, 20000);
  std::uniform_int_distribution<std::uint64_t> rounds(1, 5000);
  for (int i = 0; i < 100000; ++i) {
    values.push_back(static_cast<double>(collisions(gen)) /
                     static_cast<double>(rounds(gen)));
  }
  for (double base : {9007199254740992.0, 1e15, 1.0}) {
    for (int k = -3; k <= 3; ++k) {
      values.push_back(base + k);
      values.push_back(-(base + k));
    }
  }
  return values;
}

TEST(JsonValue, NumberBytesMatchPrintfOnTheDifferentialSet) {
  std::size_t mismatches = 0;
  for (const double v : differential_set()) {
    const std::string got = JsonValue(v).dump();
    const std::string want = printf_reference(v);
    if (got != want && mismatches++ < 5) {
      ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(v) << ": got "
                    << got << ", want " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonValue, ParseOfDumpIsBitIdentical) {
  const std::vector<double> values = differential_set();
  JsonValue doc = JsonValue::array();
  for (const double v : values) {
    doc.push_back(v);
  }
  const JsonValue back = JsonValue::parse(doc.dump(0));
  ASSERT_EQ(back.items().size(), values.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double got = back.items()[i].as_double();
    if (std::bit_cast<std::uint64_t>(got) !=
            std::bit_cast<std::uint64_t>(values[i]) &&
        mismatches++ < 5) {
      ADD_FAILURE() << "index " << i << ": " << values[i] << " parsed back as "
                    << got;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonParse, OutOfRangeNumbersKeepTheirValues) {
  // Beyond the double range the parser saturates like strtod: overflow
  // to infinity, underflow to zero (sign kept).
  EXPECT_EQ(JsonValue::parse("1e400").as_double(), HUGE_VAL);
  EXPECT_EQ(JsonValue::parse("-1e400").as_double(), -HUGE_VAL);
  EXPECT_EQ(JsonValue::parse("1e-400").as_double(), 0.0);
  EXPECT_TRUE(std::signbit(JsonValue::parse("-1e-400").as_double()));
  EXPECT_EQ(JsonValue::parse("4.9406564584124654e-324").as_double(), 5e-324);
  EXPECT_EQ(JsonValue::parse("-0").as_double(), 0.0);
  EXPECT_TRUE(std::signbit(JsonValue::parse("-0").as_double()));
}

TEST(JsonValue, EscapesStrings) {
  EXPECT_EQ(json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonValue(std::string("\x01")).dump(), "\"\\u0001\"");
}

TEST(JsonValue, ObjectsKeepInsertionOrderAndOverwrite) {
  JsonValue doc = JsonValue::object();
  doc.set("b", 1.0);
  doc.set("a", 2.0);
  doc.set("b", 3.0);  // overwrite in place, order preserved
  EXPECT_EQ(doc.dump(0), "{\"b\":3,\"a\":2}");
  ASSERT_NE(doc.find("b"), nullptr);
  EXPECT_DOUBLE_EQ(doc.find("b")->as_double(), 3.0);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonValue, PrettyPrintsNestedStructures) {
  JsonValue doc = JsonValue::object();
  doc.set("xs", JsonValue::array().push_back(1.0).push_back(2.0));
  EXPECT_EQ(doc.dump(2), "{\n  \"xs\": [\n    1,\n    2\n  ]\n}");
}

TEST(JsonValue, RejectsNonFiniteNumbers) {
  EXPECT_THROW(JsonValue(1.0 / 0.0).dump(), std::invalid_argument);
}

TEST(JsonValue, ParsesRoundTrip) {
  const std::string text =
      R"js({"name": "torus2d(8x8)", "agents": 100, "ratio": -0.25,)js"
      R"js( "ok": true, "none": null, "xs": [1, 2.5, "three"]})js";
  const JsonValue doc = JsonValue::parse(text);
  EXPECT_EQ(doc.find("name")->as_string(), "torus2d(8x8)");
  EXPECT_EQ(doc.find("agents")->as_uint(), 100u);
  EXPECT_DOUBLE_EQ(doc.find("ratio")->as_double(), -0.25);
  EXPECT_TRUE(doc.find("ok")->as_bool());
  EXPECT_TRUE(doc.find("none")->is_null());
  ASSERT_EQ(doc.find("xs")->items().size(), 3u);
  EXPECT_EQ(doc.find("xs")->items()[2].as_string(), "three");
  // dump -> parse -> dump is a fixed point.
  EXPECT_EQ(JsonValue::parse(doc.dump()).dump(), doc.dump());
}

TEST(JsonValue, ParsesEscapes) {
  const JsonValue doc = JsonValue::parse(R"(["a\"b", "\u0041", "\n"])");
  EXPECT_EQ(doc.items()[0].as_string(), "a\"b");
  EXPECT_EQ(doc.items()[1].as_string(), "A");
  EXPECT_EQ(doc.items()[2].as_string(), "\n");
}

TEST(JsonValue, ParseRejectsMalformedInput) {
  const char* bad[] = {
      "",            // empty
      "{",           // unterminated object
      "[1, 2",       // unterminated array
      "\"abc",       // unterminated string
      "{\"a\" 1}",   // missing colon
      "[1 2]",       // missing comma
      "tru",         // bad literal
      "01a",         // trailing garbage in number context
      "[1] []",      // trailing document
      "{\"a\": 1,}", // trailing comma (strict)
      "nan",         // not JSON
      "01",          // leading zero (RFC 8259 number grammar)
      "-.5",         // missing integer part
      "1.",          // missing fraction digits
      "1e",          // missing exponent digits
      "+5",          // explicit plus sign
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    EXPECT_THROW(JsonValue::parse(text), std::invalid_argument);
  }
}

TEST(JsonParse, NestingWithinTheLimitParses) {
  // 64 containers deep is allowed; the document below nests 60.
  std::string text;
  for (int i = 0; i < 60; ++i) {
    text += '[';
  }
  for (int i = 0; i < 60; ++i) {
    text += ']';
  }
  EXPECT_NO_THROW(JsonValue::parse(text));
}

TEST(JsonParse, PathologicalNestingThrowsInsteadOfOverflowing) {
  // 100k open containers would recurse the parser off the stack without
  // the depth limit; it must surface as an ordinary parse error.
  std::string objects;
  for (int i = 0; i < 100000; ++i) {
    objects += "{\"a\":";
  }
  for (const std::string& text : {std::string(100000, '['), objects}) {
    try {
      JsonValue::parse(text);
      FAIL() << "expected a nesting-depth error";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("nesting depth"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(JsonParse, TruncatedDocumentsNameTheProblem) {
  const char* truncated[] = {
      "",
      "{\"a\": 1",
      "[1, 2",
      "{\"a\":",
      "{",
  };
  for (const char* text : truncated) {
    SCOPED_TRACE(text);
    try {
      JsonValue::parse(text);
      FAIL() << "expected a truncation error";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
          << e.what();
    }
  }
  // Truncations inside string tokens keep their specific messages.
  EXPECT_THROW(JsonValue::parse("\"abc"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("\"abc\\"), std::invalid_argument);
}

TEST(JsonValue, TypedAccessorsRejectMismatches) {
  EXPECT_THROW(JsonValue("x").as_double(), std::invalid_argument);
  EXPECT_THROW(JsonValue(1.5).as_uint(), std::invalid_argument);
  EXPECT_THROW(JsonValue(-1.0).as_uint(), std::invalid_argument);
  EXPECT_THROW(JsonValue(1.0).as_string(), std::invalid_argument);
  EXPECT_THROW(JsonValue().items(), std::invalid_argument);
  EXPECT_THROW(JsonValue("x").entries(), std::invalid_argument);
}

}  // namespace
}  // namespace antdense::util
