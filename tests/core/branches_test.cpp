#include "core/branches.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/schemas.hpp"
#include "test_fixtures.hpp"

namespace ivt::core {
namespace {

using testing::kMs;

SequenceData ramp_with_outlier() {
  SequenceData d;
  d.s_id = "speed";
  d.bus = "FC";
  for (int i = 0; i < 60; ++i) {
    d.t.push_back(i * 10 * kMs);
    double v = static_cast<double>(i);
    if (i == 30) v = 800.0;  // injected outlier (paper Table 4 shows v=800)
    d.v_num.push_back(v);
    d.has_num.push_back(1);
    d.v_str.emplace_back();
    d.has_str.push_back(0);
  }
  return d;
}

std::vector<std::string> kinds_of(const dataflow::Table& out) {
  std::vector<std::string> kinds;
  const std::size_t col = out.schema().require("element_kind");
  out.for_each_row([&](const dataflow::RowView& row) {
    kinds.push_back(row.string_at(col));
  });
  return kinds;
}

TEST(BranchAlphaTest, OutputIsKrepSchemaAndTimeOrdered) {
  const SequenceData d = ramp_with_outlier();
  BranchConfig config;
  const auto out = process_alpha({d, nullptr}, config);
  EXPECT_EQ(out.schema(), krep_schema());
  std::int64_t last_t = -1;
  out.for_each_row([&](const dataflow::RowView& row) {
    EXPECT_GE(row.int64_at(0), last_t);
    last_t = row.int64_at(0);
  });
}

TEST(BranchAlphaTest, OutlierIsolatedAndMergedBack) {
  const SequenceData d = ramp_with_outlier();
  BranchConfig config;
  BranchStats stats;
  const auto out = process_alpha({d, nullptr}, config, &stats);
  EXPECT_EQ(stats.outliers, 1u);
  bool found = false;
  const std::size_t value_col = out.schema().require("value");
  const std::size_t kind_col = out.schema().require("element_kind");
  out.for_each_row([&](const dataflow::RowView& row) {
    if (row.string_at(kind_col) == kElementOutlier) {
      found = true;
      EXPECT_NE(row.string_at(value_col).find("outlier v=800"),
                std::string::npos);
      EXPECT_EQ(row.int64_at(0), 300 * kMs);
    }
  });
  EXPECT_TRUE(found);
}

TEST(BranchAlphaTest, SegmentsCompressTheSequence) {
  const SequenceData d = ramp_with_outlier();
  BranchConfig config;
  BranchStats stats;
  const auto out = process_alpha({d, nullptr}, config, &stats);
  // A clean ramp should collapse into very few segments.
  EXPECT_GE(stats.segments, 1u);
  EXPECT_LT(stats.segments, 10u);
  EXPECT_LT(out.num_rows(), d.size());
}

TEST(BranchAlphaTest, RampSegmentsAreIncreasing) {
  const SequenceData d = ramp_with_outlier();
  BranchConfig config;
  const auto out = process_alpha({d, nullptr}, config);
  const std::size_t value_col = out.schema().require("value");
  const std::size_t kind_col = out.schema().require("element_kind");
  out.for_each_row([&](const dataflow::RowView& row) {
    if (row.string_at(kind_col) == kElementState) {
      EXPECT_NE(row.string_at(value_col).find("increasing"),
                std::string::npos)
          << row.string_at(value_col);
    }
  });
}

TEST(BranchAlphaTest, FlatSequenceIsSteadyMidLevel) {
  SequenceData d;
  d.s_id = "const";
  d.bus = "FC";
  for (int i = 0; i < 30; ++i) {
    d.t.push_back(i * 10 * kMs);
    d.v_num.push_back(5.0);
    d.has_num.push_back(1);
    d.v_str.emplace_back();
    d.has_str.push_back(0);
  }
  BranchConfig config;
  const auto out = process_alpha({d, nullptr}, config);
  ASSERT_GE(out.num_rows(), 1u);
  const auto rows = out.collect_rows();
  const std::size_t value_col = out.schema().require("value");
  EXPECT_EQ(rows[0][value_col], dataflow::Value{"(mid,steady)"});
}

TEST(BranchAlphaTest, ValidityMarkersRoutedSeparately) {
  SequenceData d = ramp_with_outlier();
  signaldb::SignalSpec spec;
  spec.name = "speed";
  spec.value_table = {{15, "snv", true}};
  // Replace one instance with a validity label.
  d.v_str[10] = "snv";
  d.has_str[10] = 1;
  d.has_num[10] = 0;
  BranchStats stats;
  const auto out = process_alpha({d, &spec}, BranchConfig{}, &stats);
  EXPECT_EQ(stats.validity, 1u);
  const auto kinds = kinds_of(out);
  EXPECT_NE(std::find(kinds.begin(), kinds.end(),
                      std::string(kElementValidity)),
            kinds.end());
}

// Rows of one element kind, as (value text, v_num).
std::vector<std::pair<std::string, double>> rows_of_kind(
    const dataflow::Table& out, const char* kind) {
  std::vector<std::pair<std::string, double>> rows;
  const std::size_t value_col = out.schema().require("value");
  const std::size_t num_col = out.schema().require("v_num");
  const std::size_t kind_col = out.schema().require("element_kind");
  out.for_each_row([&](const dataflow::RowView& row) {
    if (row.string_at(kind_col) == kind) {
      rows.emplace_back(row.string_at(value_col), row.float64_at(num_col));
    }
  });
  return rows;
}

TEST(BranchAlphaTest, NonFiniteValuesAreOutliersAndLeaveTheRestFinite) {
  SequenceData d = ramp_with_outlier();
  d.v_num[10] = std::numeric_limits<double>::quiet_NaN();
  d.v_num[45] = std::numeric_limits<double>::infinity();
  BranchStats stats;
  const auto out = process_alpha({d, nullptr}, BranchConfig{}, &stats);
  EXPECT_EQ(stats.outliers, 3u);  // v=800, NaN and +inf
  std::vector<std::string> outliers;
  for (const auto& [value, v] : rows_of_kind(out, kElementOutlier)) {
    outliers.push_back(value);
  }
  EXPECT_EQ(outliers, (std::vector<std::string>{
                          "outlier v=nan", "outlier v=800", "outlier v=inf"}));
  // The clean runs saw no non-finite value: the normalization statistics
  // and the SWAB budget stay finite, so the ramp still segments into a few
  // increasing states.
  const auto states = rows_of_kind(out, kElementState);
  ASSERT_FALSE(states.empty());
  EXPECT_LT(states.size(), 12u);
  for (const auto& [value, v] : states) {
    EXPECT_TRUE(std::isfinite(v)) << value;
    EXPECT_NE(value.find("increasing"), std::string::npos) << value;
  }
}

TEST(BranchAlphaTest, SaxLevelNames) {
  EXPECT_EQ(sax_level_name(0, 5), "verylow");
  EXPECT_EQ(sax_level_name(2, 5), "mid");
  EXPECT_EQ(sax_level_name(4, 5), "veryhigh");
  EXPECT_EQ(sax_level_name(0, 2), "low");
  EXPECT_EQ(sax_level_name(1, 2), "high");
  EXPECT_EQ(sax_level_name(3, 7), "L3");
}

SequenceData ordinal_sequence() {
  SequenceData d;
  d.s_id = "heat";
  d.bus = "K-LIN";
  const char* labels[] = {"off", "low", "medium", "high",
                          "medium", "snv", "low", "off"};
  for (int i = 0; i < 8; ++i) {
    d.t.push_back(i * 1000 * kMs);
    d.v_num.push_back(0.0);
    d.has_num.push_back(0);
    d.v_str.push_back(labels[i]);
    d.has_str.push_back(1);
  }
  return d;
}

signaldb::SignalSpec heat_spec() {
  signaldb::SignalSpec spec;
  spec.name = "heat";
  spec.ordered_values = true;
  spec.value_table = {{0, "off", false},
                      {1, "low", false},
                      {2, "medium", false},
                      {3, "high", false},
                      {14, "snv", true}};
  return spec;
}

TEST(BranchBetaTest, ValiditySplitKV) {
  const SequenceData d = ordinal_sequence();
  const signaldb::SignalSpec spec = heat_spec();
  BranchStats stats;
  const auto out = process_beta({d, &spec}, BranchConfig{}, &stats);
  EXPECT_EQ(stats.validity, 1u);  // the snv element
  EXPECT_EQ(out.num_rows(), d.size());
}

TEST(BranchBetaTest, FunctionalElementsGetTrends) {
  const SequenceData d = ordinal_sequence();
  const signaldb::SignalSpec spec = heat_spec();
  const auto out = process_beta({d, &spec}, BranchConfig{});
  const auto rows = out.collect_rows();
  const std::size_t value_col = out.schema().require("value");
  // Element 1 ("low" after "off"): increasing rank.
  EXPECT_EQ(rows[1][value_col], dataflow::Value{"(low,increasing)"});
  // Element 4 ("medium" after "high"): decreasing.
  EXPECT_EQ(rows[4][value_col], dataflow::Value{"(medium,decreasing)"});
}

TEST(BranchBetaTest, NumericTranslationUsesRank) {
  const SequenceData d = ordinal_sequence();
  const signaldb::SignalSpec spec = heat_spec();
  const auto out = process_beta({d, &spec}, BranchConfig{});
  const auto rows = out.collect_rows();
  const std::size_t num_col = out.schema().require("v_num");
  EXPECT_EQ(rows[0][num_col], dataflow::Value{0.0});  // off -> rank 0
  EXPECT_EQ(rows[3][num_col], dataflow::Value{3.0});  // high -> rank 3
}

TEST(BranchBetaTest, NumericOrdinalOutlierDetected) {
  SequenceData d;
  d.s_id = "level";
  d.bus = "FC";
  for (int i = 0; i < 40; ++i) {
    d.t.push_back(i * 1000 * kMs);
    d.v_num.push_back(i == 20 ? 99.0 : static_cast<double>(i % 3));
    d.has_num.push_back(1);
    d.v_str.emplace_back();
    d.has_str.push_back(0);
  }
  BranchStats stats;
  process_beta({d, nullptr}, BranchConfig{}, &stats);
  EXPECT_GE(stats.outliers, 1u);
}

TEST(BranchBetaTest, NonFiniteValuesAreOutliers) {
  SequenceData d;
  d.s_id = "level";
  d.bus = "FC";
  for (int i = 0; i < 40; ++i) {
    d.t.push_back(i * 1000 * kMs);
    d.v_num.push_back(static_cast<double>(i % 3));
    d.has_num.push_back(1);
    d.v_str.emplace_back();
    d.has_str.push_back(0);
  }
  d.v_num[10] = std::numeric_limits<double>::quiet_NaN();
  d.v_num[25] = std::numeric_limits<double>::infinity();
  BranchStats stats;
  const auto out = process_beta({d, nullptr}, BranchConfig{}, &stats);
  EXPECT_EQ(out.num_rows(), d.size());
  std::vector<std::string> outliers;
  for (const auto& [value, v] : rows_of_kind(out, kElementOutlier)) {
    outliers.push_back(value);
  }
  EXPECT_EQ(outliers,
            (std::vector<std::string>{"outlier v=nan", "outlier v=inf"}));
  EXPECT_EQ(stats.outliers, 2u);
  // Every other element is a finite state with a trend from its finite
  // neighbours.
  const auto states = rows_of_kind(out, kElementState);
  EXPECT_EQ(states.size(), d.size() - 2);
  for (const auto& [value, v] : states) {
    EXPECT_TRUE(std::isfinite(v)) << value;
    EXPECT_EQ(value.find("nan"), std::string::npos) << value;
    EXPECT_EQ(value.find("inf"), std::string::npos) << value;
  }
}

TEST(BranchGammaTest, PassthroughNoTransformation) {
  SequenceData d;
  d.s_id = "belt";
  d.bus = "FC";
  const char* labels[] = {"ON", "OFF", "ON"};
  for (int i = 0; i < 3; ++i) {
    d.t.push_back(i * 100 * kMs);
    d.v_num.push_back(0.0);
    d.has_num.push_back(0);
    d.v_str.push_back(labels[i]);
    d.has_str.push_back(1);
  }
  BranchStats stats;
  const auto out = process_gamma({d, nullptr}, BranchConfig{}, &stats);
  EXPECT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(stats.states, 3u);
  const auto rows = out.collect_rows();
  EXPECT_EQ(rows[0][out.schema().require("value")], dataflow::Value{"ON"});
}

TEST(BranchGammaTest, ValiditySplitApplied) {
  SequenceData d;
  d.s_id = "mode";
  d.bus = "FC";
  signaldb::SignalSpec spec;
  spec.name = "mode";
  spec.value_table = {{0, "driving", false}, {15, "invalid", true}};
  const char* labels[] = {"driving", "invalid"};
  for (int i = 0; i < 2; ++i) {
    d.t.push_back(i * 100 * kMs);
    d.v_num.push_back(0.0);
    d.has_num.push_back(0);
    d.v_str.push_back(labels[i]);
    d.has_str.push_back(1);
  }
  BranchStats stats;
  const auto out = process_gamma({d, &spec}, BranchConfig{}, &stats);
  EXPECT_EQ(stats.validity, 1u);
  EXPECT_EQ(stats.states, 1u);
  const auto kinds = kinds_of(out);
  EXPECT_EQ(kinds[1], kElementValidity);
}

TEST(BranchGammaTest, NumericBinaryFormatted) {
  SequenceData d;
  d.s_id = "flag";
  d.bus = "FC";
  d.t = {0, 100 * kMs};
  d.v_num = {0.0, 1.0};
  d.has_num = {1, 1};
  d.v_str = {"", ""};
  d.has_str = {0, 0};
  const auto out = process_gamma({d, nullptr}, BranchConfig{});
  const auto rows = out.collect_rows();
  EXPECT_EQ(rows[0][out.schema().require("value")], dataflow::Value{"0"});
  EXPECT_EQ(rows[1][out.schema().require("value")], dataflow::Value{"1"});
}

TEST(BranchDispatchTest, RoutesToCorrectBranch) {
  const SequenceData d = ramp_with_outlier();
  BranchStats alpha_stats;
  process_by_branch(Branch::Alpha, {d, nullptr}, BranchConfig{},
                    &alpha_stats);
  EXPECT_GT(alpha_stats.segments, 0u);
  BranchStats gamma_stats;
  const auto out = process_by_branch(Branch::Gamma, {d, nullptr},
                                     BranchConfig{}, &gamma_stats);
  EXPECT_EQ(gamma_stats.segments, 0u);
  EXPECT_EQ(out.num_rows(), d.size());
}

TEST(BranchTest, EmptySequenceSafeInAllBranches) {
  SequenceData d;
  d.s_id = "x";
  d.bus = "FC";
  for (Branch b : {Branch::Alpha, Branch::Beta, Branch::Gamma}) {
    const auto out = process_by_branch(b, {d, nullptr}, BranchConfig{});
    EXPECT_EQ(out.num_rows(), 0u);
  }
}

}  // namespace
}  // namespace ivt::core
