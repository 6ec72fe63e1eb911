#include "dataflow/ops.hpp"

#include <gtest/gtest.h>

namespace ivt::dataflow {
namespace {

class OpsTest : public ::testing::Test {
 protected:
  Engine engine_{EngineConfig{.workers = 4, .default_partitions = 4}};

  static Schema people_schema() {
    return Schema{{{"id", ValueType::Int64},
                   {"city", ValueType::String},
                   {"score", ValueType::Float64}}};
  }

  static Table people(std::size_t partition_rows = 3) {
    TableBuilder b(people_schema(), partition_rows);
    const char* cities[] = {"muc", "ber", "muc", "ham", "ber",
                            "muc", "ham", "muc", "ber", "muc"};
    for (std::int64_t i = 0; i < 10; ++i) {
      b.append_row({Value{i}, Value{cities[i]},
                    Value{static_cast<double>(i) * 0.5}});
    }
    return b.build();
  }
};

TEST_F(OpsTest, FilterKeepsMatchingRows) {
  const Table t = people();
  const Table out = filter(engine_, t, [](const RowView& r) {
    return r.int64_at(0) % 2 == 0;
  });
  EXPECT_EQ(out.num_rows(), 5u);
  out.for_each_row(
      [](const RowView& r) { EXPECT_EQ(r.int64_at(0) % 2, 0); });
}

TEST_F(OpsTest, FilterPreservesOrder) {
  const Table out = filter(engine_, people(), [](const RowView& r) {
    return r.int64_at(0) >= 5;
  });
  std::vector<std::int64_t> ids;
  out.for_each_row([&](const RowView& r) { ids.push_back(r.int64_at(0)); });
  EXPECT_EQ(ids, (std::vector<std::int64_t>{5, 6, 7, 8, 9}));
}

TEST_F(OpsTest, ProjectSelectsAndReorders) {
  const Table out = project(engine_, people(), {"score", "id"});
  ASSERT_EQ(out.schema().size(), 2u);
  EXPECT_EQ(out.schema().field(0).name, "score");
  EXPECT_EQ(out.num_rows(), 10u);
}

TEST_F(OpsTest, SortByDescending) {
  const Table out = sort_by(engine_, people(), {{"id", false}});
  std::vector<std::int64_t> ids;
  out.for_each_row([&](const RowView& r) { ids.push_back(r.int64_at(0)); });
  EXPECT_EQ(ids, (std::vector<std::int64_t>{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}));
}

TEST_F(OpsTest, SortIsStableOnTies) {
  const Table out = sort_by(engine_, people(), {{"city", true}});
  // Within one city, ids must stay ascending (input order).
  std::string last_city;
  std::int64_t last_id = -1;
  out.for_each_row([&](const RowView& r) {
    const std::string& city = r.string_at(1);
    if (city == last_city) EXPECT_GT(r.int64_at(0), last_id);
    last_city = city;
    last_id = r.int64_at(0);
  });
}

TEST_F(OpsTest, SortNullsFirst) {
  TableBuilder b(Schema{{{"v", ValueType::Int64}}}, 0);
  b.append_row({Value{std::int64_t{2}}});
  b.append_row({Value{}});
  b.append_row({Value{std::int64_t{1}}});
  const Table out = sort_by(engine_, b.build(), {{"v", true}});
  const auto rows = out.collect_rows();
  EXPECT_TRUE(rows[0][0].is_null());
  EXPECT_EQ(rows[1][0], Value{std::int64_t{1}});
}

TEST_F(OpsTest, ResultsIndependentOfWorkerCount) {
  Engine one{EngineConfig{.workers = 1, .default_partitions = 4}};
  Engine many{EngineConfig{.workers = 8, .default_partitions = 4}};
  const Table t = people(2);
  auto run = [&](Engine& e) {
    const Table f = filter(e, t, [](const RowView& r) {
      return r.int64_at(0) != 3;
    });
    return sort_by(e, f, {{"city", true}, {"score", false}}).collect_rows();
  };
  EXPECT_EQ(run(one), run(many));
}

TEST_F(OpsTest, FilterPropagatesPredicateExceptions) {
  EXPECT_THROW(
      filter(engine_, people(), [](const RowView&) -> bool {
        throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

}  // namespace
}  // namespace ivt::dataflow
