// Robustness: every relational operation must handle empty tables,
// empty partitions and degenerate inputs without crashing.
#include "errors/error.hpp"
#include <gtest/gtest.h>

#include "dataflow/ops.hpp"

namespace ivt::dataflow {
namespace {

class OpsEdgeTest : public ::testing::Test {
 protected:
  Engine engine_{EngineConfig{.workers = 2, .default_partitions = 4}};

  static Schema schema() {
    return Schema{{{"k", ValueType::String}, {"v", ValueType::Int64}}};
  }

  static Table empty_table() { return Table(schema()); }

  /// Table with one explicitly empty partition.
  static Table empty_partition_table() {
    Table t(schema());
    t.add_partition(Table::make_partition(schema()));
    return t;
  }

  static Table one_row() {
    TableBuilder b(schema(), 0);
    b.append_row({Value{"a"}, Value{std::int64_t{1}}});
    return b.build();
  }
};

TEST_F(OpsEdgeTest, FilterEmpty) {
  EXPECT_EQ(filter(engine_, empty_table(),
                   [](const RowView&) { return true; })
                .num_rows(),
            0u);
  EXPECT_EQ(filter(engine_, empty_partition_table(),
                   [](const RowView&) { return true; })
                .num_rows(),
            0u);
}

TEST_F(OpsEdgeTest, ProjectEmpty) {
  const Table out = project(engine_, empty_partition_table(), {"v"});
  EXPECT_EQ(out.num_rows(), 0u);
  EXPECT_EQ(out.schema().size(), 1u);
}

TEST_F(OpsEdgeTest, SortEmpty) {
  EXPECT_EQ(sort_by(engine_, empty_table(), {{"v", true}}).num_rows(), 0u);
}

TEST_F(OpsEdgeTest, SortSingleRow) {
  const Table out = sort_by(engine_, one_row(), {{"v", false}});
  EXPECT_EQ(out.num_rows(), 1u);
}

TEST_F(OpsEdgeTest, RepartitionEmpty) {
  EXPECT_EQ(empty_table().repartitioned(8).num_rows(), 0u);
}

TEST_F(OpsEdgeTest, ProjectUnknownColumnThrows) {
  EXPECT_THROW(project(engine_, one_row(), {"zz"}), ivt::errors::Error);
}

TEST_F(OpsEdgeTest, SortUnknownColumnThrows) {
  EXPECT_THROW(sort_by(engine_, one_row(), {{"zz", true}}),
               ivt::errors::Error);
}

}  // namespace
}  // namespace ivt::dataflow
