#include "dataflow/value.hpp"

#include <gtest/gtest.h>

namespace ivt::dataflow {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::Null);
}

TEST(ValueTest, Int64RoundTrip) {
  Value v{std::int64_t{42}};
  EXPECT_EQ(v.type(), ValueType::Int64);
  EXPECT_EQ(v.as_int64(), 42);
}

TEST(ValueTest, Float64RoundTrip) {
  Value v{3.25};
  EXPECT_EQ(v.type(), ValueType::Float64);
  EXPECT_DOUBLE_EQ(v.as_float64(), 3.25);
}

TEST(ValueTest, StringRoundTrip) {
  Value v{"hello"};
  EXPECT_EQ(v.type(), ValueType::String);
  EXPECT_EQ(v.as_string(), "hello");
}

TEST(ValueTest, StringViewConstructor) {
  std::string_view sv = "view";
  Value v{sv};
  EXPECT_EQ(v.as_string(), "view");
}

TEST(ValueTest, EqualityWithinType) {
  EXPECT_EQ(Value{std::int64_t{1}}, Value{std::int64_t{1}});
  EXPECT_NE(Value{std::int64_t{1}}, Value{std::int64_t{2}});
  EXPECT_EQ(Value{"a"}, Value{"a"});
  EXPECT_NE(Value{"a"}, Value{"b"});
  EXPECT_EQ(Value{}, Value{});
}

TEST(ValueTest, DifferentTypesAreNotEqual) {
  EXPECT_NE(Value{std::int64_t{1}}, Value{1.0});
  EXPECT_NE(Value{}, Value{std::int64_t{0}});
}

TEST(ValueTest, OrderingWithinType) {
  EXPECT_LT(Value{std::int64_t{1}}, Value{std::int64_t{2}});
  EXPECT_LT(Value{"a"}, Value{"b"});
  EXPECT_LT(Value{1.5}, Value{2.5});
}

TEST(ValueTest, NullOrdersBeforeTyped) {
  EXPECT_LT(Value{}, Value{std::int64_t{-100}});
}

TEST(ValueTest, DisplayString) {
  EXPECT_EQ(Value{}.to_display_string(), "");
  EXPECT_EQ(Value{std::int64_t{7}}.to_display_string(), "7");
  EXPECT_EQ(Value{"x y"}.to_display_string(), "x y");
  EXPECT_EQ(Value{2.5}.to_display_string(), "2.5");
  EXPECT_EQ(Value{3.0}.to_display_string(), "3");
}

TEST(ValueTypeTest, Names) {
  EXPECT_EQ(to_string(ValueType::Null), "null");
  EXPECT_EQ(to_string(ValueType::Int64), "int64");
  EXPECT_EQ(to_string(ValueType::Float64), "float64");
  EXPECT_EQ(to_string(ValueType::String), "string");
}

}  // namespace
}  // namespace ivt::dataflow
