#include "errors/error.hpp"
#include "dataflow/schema.hpp"

#include <gtest/gtest.h>

namespace ivt::dataflow {
namespace {

Schema make_schema() {
  return Schema{{{"t", ValueType::Int64},
                 {"name", ValueType::String},
                 {"v", ValueType::Float64}}};
}

TEST(SchemaTest, SizeAndFieldAccess) {
  const Schema s = make_schema();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.field(0).name, "t");
  EXPECT_EQ(s.field(1).type, ValueType::String);
}

TEST(SchemaTest, IndexOf) {
  const Schema s = make_schema();
  EXPECT_EQ(s.index_of("t"), 0u);
  EXPECT_EQ(s.index_of("v"), 2u);
  EXPECT_FALSE(s.index_of("missing").has_value());
}

TEST(SchemaTest, RequireThrowsOnMissing) {
  const Schema s = make_schema();
  EXPECT_EQ(s.require("name"), 1u);
  EXPECT_THROW((void)s.require("nope"), ivt::errors::Error);
}

TEST(SchemaTest, DuplicateNamesRejected) {
  EXPECT_THROW(Schema({{"a", ValueType::Int64}, {"a", ValueType::String}}),
               ivt::errors::Error);
}

TEST(SchemaTest, SelectReordersFields) {
  const Schema s = make_schema().select({"v", "t"});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.field(0).name, "v");
  EXPECT_EQ(s.field(1).name, "t");
}

TEST(SchemaTest, SelectUnknownThrows) {
  EXPECT_THROW(make_schema().select({"zz"}), ivt::errors::Error);
}

TEST(SchemaTest, Equality) {
  EXPECT_EQ(make_schema(), make_schema());
  EXPECT_NE(make_schema(), make_schema().select({"t", "name"}));
}

TEST(SchemaTest, DisplayString) {
  EXPECT_EQ(make_schema().to_display_string(),
            "(t: int64, name: string, v: float64)");
}

TEST(SchemaTest, EmptySchema) {
  const Schema s;
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains("anything"));
}

}  // namespace
}  // namespace ivt::dataflow
