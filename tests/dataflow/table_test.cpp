#include "errors/error.hpp"
#include "dataflow/table.hpp"

#include <gtest/gtest.h>

namespace ivt::dataflow {
namespace {

Schema test_schema() {
  return Schema{{{"id", ValueType::Int64}, {"name", ValueType::String}}};
}

Table make_table(std::size_t rows, std::size_t partition_rows) {
  TableBuilder builder(test_schema(), partition_rows);
  for (std::size_t i = 0; i < rows; ++i) {
    builder.append_row({Value{static_cast<std::int64_t>(i)},
                        Value{"row" + std::to_string(i)}});
  }
  return builder.build();
}

TEST(TableTest, EmptyTable) {
  Table t(test_schema());
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_TRUE(t.empty());
}

TEST(TableBuilderTest, SinglePartitionWhenTargetZero) {
  const Table t = make_table(10, 0);
  EXPECT_EQ(t.num_partitions(), 1u);
  EXPECT_EQ(t.num_rows(), 10u);
}

TEST(TableBuilderTest, PartitionsRollAtTarget) {
  const Table t = make_table(10, 3);
  EXPECT_EQ(t.num_partitions(), 4u);  // 3+3+3+1
  EXPECT_EQ(t.num_rows(), 10u);
}

TEST(TableBuilderTest, RowWidthMismatchThrows) {
  TableBuilder builder(test_schema(), 0);
  EXPECT_THROW(builder.append_row({Value{std::int64_t{1}}}),
               ivt::errors::Error);
}

TEST(TableTest, CollectRowsPreservesOrder) {
  const Table t = make_table(7, 2);
  const auto rows = t.collect_rows();
  ASSERT_EQ(rows.size(), 7u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0], Value{static_cast<std::int64_t>(i)});
  }
}

TEST(TableTest, ForEachRowVisitsAllInOrder) {
  const Table t = make_table(5, 2);
  std::vector<std::int64_t> seen;
  t.for_each_row([&](const RowView& row) { seen.push_back(row.int64_at(0)); });
  EXPECT_EQ(seen, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
}

TEST(TableTest, AddPartitionValidatesWidth) {
  Table t(test_schema());
  Partition p;  // empty columns
  EXPECT_THROW(t.add_partition(std::move(p)), ivt::errors::Error);
}

TEST(TableTest, AddPartitionValidatesTypes) {
  Table t(test_schema());
  Partition p;
  p.columns.emplace_back(ValueType::String);  // wrong type for col 0
  p.columns.emplace_back(ValueType::String);
  EXPECT_THROW(t.add_partition(std::move(p)), ivt::errors::Error);
}

TEST(TableTest, AddPartitionRejectsRaggedColumns) {
  Table t(test_schema());
  Partition p = Table::make_partition(test_schema());
  p.columns[0].append_int64(1);
  // column 1 left empty -> ragged
  EXPECT_THROW(t.add_partition(std::move(p)), ivt::errors::Error);
}

TEST(TableTest, DisplayStringMentionsCounts) {
  const Table t = make_table(3, 0);
  const std::string s = t.to_display_string();
  EXPECT_NE(s.find("3 rows"), std::string::npos);
  EXPECT_NE(s.find("row0"), std::string::npos);
}

TEST(TableTest, DisplayStringTruncates) {
  const Table t = make_table(30, 0);
  const std::string s = t.to_display_string(5);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

TEST(RowViewTest, ByNameAccess) {
  const Table t = make_table(1, 0);
  t.for_each_row([](const RowView& row) {
    EXPECT_EQ(row.value("name").as_string(), "row0");
  });
}

TEST(TableBuilderTest, TypedPathMatchesBoxedPath) {
  TableBuilder builder(test_schema(), 2);
  for (int i = 0; i < 3; ++i) {
    Partition& p = builder.current_partition();
    p.columns[0].append_int64(i);
    p.columns[1].append_string("row" + std::to_string(i));
    builder.commit_row();
  }
  const Table t = builder.build();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_partitions(), 2u);
  EXPECT_EQ(t.collect_rows(), make_table(3, 2).collect_rows());
}

}  // namespace
}  // namespace ivt::dataflow
