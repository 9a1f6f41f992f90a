// Minimal JSON reader: the grammar gnnasim emits must round-trip, and
// malformed input must fail loudly (gnnatrace turns ParseError into a
// usage error instead of diffing garbage).
#include "sim/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace gnna::sim::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Value::parse("null").is_null());
  EXPECT_TRUE(Value::parse("true").as_bool());
  EXPECT_FALSE(Value::parse(" false ").as_bool());
  EXPECT_DOUBLE_EQ(Value::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(Value::parse("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(Value::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesEscapes) {
  EXPECT_EQ(Value::parse(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(Value::parse(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(Json, ParsesNestedStructures) {
  const Value v = Value::parse(
      R"({"name": "gc1", "cycles": 100, "phases": [{"x": 1}, {"x": 2}],)"
      R"( "flag": true, "none": null})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("name")->as_string(), "gc1");
  EXPECT_DOUBLE_EQ(v.find("cycles")->as_number(), 100.0);
  const Value* phases = v.find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->size(), 2U);
  EXPECT_DOUBLE_EQ(phases->at(1).find("x")->as_number(), 2.0);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_TRUE(v.find("none")->is_null());
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  const Value v = Value::parse(R"({"b": 1, "a": 2})");
  ASSERT_EQ(v.members().size(), 2U);
  EXPECT_EQ(v.members()[0].first, "b");
  EXPECT_EQ(v.members()[1].first, "a");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Value::parse(""), ParseError);
  EXPECT_THROW(Value::parse("{"), ParseError);
  EXPECT_THROW(Value::parse("[1, 2,]"), ParseError);
  EXPECT_THROW(Value::parse("{\"a\" 1}"), ParseError);
  EXPECT_THROW(Value::parse("\"unterminated"), ParseError);
  EXPECT_THROW(Value::parse("truth"), ParseError);
  EXPECT_THROW(Value::parse("1 2"), ParseError);
  EXPECT_THROW(Value::parse("nan"), ParseError);
}

TEST(Json, ReportsErrorOffset) {
  try {
    Value::parse("[1, x]");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.offset(), 4U);
    EXPECT_NE(std::string(e.what()).find("byte 4"), std::string::npos);
  }
}

TEST(Json, TypeMismatchesThrow) {
  const Value v = Value::parse("[1]");
  EXPECT_THROW((void)v.as_number(), std::logic_error);
  EXPECT_THROW((void)v.at(1), std::out_of_range);
}

TEST(Json, ParseFileMissingFileThrows) {
  EXPECT_THROW((void)parse_file("/nonexistent/run.json"), std::runtime_error);
}

}  // namespace
}  // namespace gnna::sim::json
