#include "core/split.hpp"

#include <gtest/gtest.h>

#include "test_fixtures.hpp"

namespace ivt::core {
namespace {

using testing::KsRow;
using testing::make_ks;

dataflow::Engine& engine() {
  static dataflow::Engine e{{.workers = 4, .default_partitions = 4}};
  return e;
}

TEST(SplitTest, OneSequencePerSignalType) {
  const auto ks = make_ks({
      {0, "a", 1.0, true, "", false},
      {1, "b", 2.0, true, "", false},
      {2, "a", 3.0, true, "", false},
  });
  const SplitDataResult result = split_signals_data(engine(), ks);
  ASSERT_EQ(result.sequences.size(), 2u);
  EXPECT_EQ(result.sequences[0].s_id, "a");
  EXPECT_EQ(result.sequences[0].size(), 2u);
  EXPECT_EQ(result.sequences[1].s_id, "b");
}

TEST(SplitTest, OrderIsFirstAppearance) {
  const auto ks = make_ks({
      {0, "z", 1.0, true, "", false},
      {1, "a", 2.0, true, "", false},
  });
  const SplitDataResult result = split_signals_data(engine(), ks);
  EXPECT_EQ(result.sequences[0].s_id, "z");
  EXPECT_EQ(result.sequences[1].s_id, "a");
}

TEST(SplitTest, TimeOrderPreservedWithinSequence) {
  const auto ks = make_ks({
      {0, "a", 1.0, true, "", false},
      {5, "a", 2.0, true, "", false},
      {9, "a", 3.0, true, "", false},
  });
  const SplitDataResult result = split_signals_data(engine(), ks);
  ASSERT_EQ(result.sequences.size(), 1u);
  EXPECT_EQ(result.sequences[0].t, (std::vector<std::int64_t>{0, 5, 9}));
}

TEST(SplitTest, GatewayDuplicateDetected) {
  // Identical value sequence on FC and KC (shifted timestamps).
  const auto ks = make_ks({
      {0, "a", 1.0, true, "", false, "FC"},
      {150, "a", 1.0, true, "", false, "KC"},
      {1000, "a", 2.0, true, "", false, "FC"},
      {1150, "a", 2.0, true, "", false, "KC"},
  });
  const SplitDataResult result = split_signals_data(engine(), ks);
  ASSERT_EQ(result.sequences.size(), 1u);
  EXPECT_EQ(result.sequences[0].bus, "FC");  // representative
  ASSERT_EQ(result.correspondences.size(), 1u);
  EXPECT_EQ(result.correspondences[0].s_id, "a");
  EXPECT_EQ(result.correspondences[0].representative_bus, "FC");
  EXPECT_EQ(result.correspondences[0].corresponding_buses,
            (std::vector<std::string>{"KC"}));
}

TEST(SplitTest, DifferentContentChannelsKeptSeparate) {
  const auto ks = make_ks({
      {0, "a", 1.0, true, "", false, "FC"},
      {100, "a", 9.0, true, "", false, "KC"},  // different value
  });
  const SplitDataResult result = split_signals_data(engine(), ks);
  EXPECT_EQ(result.sequences.size(), 2u);
  EXPECT_TRUE(result.correspondences.empty());
}

TEST(SplitTest, DedupDisabledKeepsAllChannels) {
  const auto ks = make_ks({
      {0, "a", 1.0, true, "", false, "FC"},
      {150, "a", 1.0, true, "", false, "KC"},
  });
  SplitOptions options;
  options.dedup_channels = false;
  const SplitDataResult result = split_signals_data(engine(), ks, options);
  EXPECT_EQ(result.sequences.size(), 2u);
}

TEST(SplitTest, ThreeChannelsOneRepresentative) {
  const auto ks = make_ks({
      {0, "a", 1.0, true, "", false, "FC"},
      {10, "a", 1.0, true, "", false, "KC"},
      {20, "a", 1.0, true, "", false, "DC"},
  });
  const SplitDataResult result = split_signals_data(engine(), ks);
  ASSERT_EQ(result.sequences.size(), 1u);
  ASSERT_EQ(result.correspondences.size(), 1u);
  EXPECT_EQ(result.correspondences[0].corresponding_buses,
            (std::vector<std::string>{"KC", "DC"}));
}

TEST(SplitTest, SequencesEqualChecksValuesNotTimes) {
  SequenceData a;
  a.t = {0, 100};
  a.v_num = {1.0, 2.0};
  a.has_num = {1, 1};
  a.v_str = {"", ""};
  a.has_str = {0, 0};
  SequenceData b = a;
  b.t = {55, 155};  // shifted
  EXPECT_TRUE(sequences_equal(a, b));
  b.v_num[1] = 3.0;
  EXPECT_FALSE(sequences_equal(a, b));
}

TEST(SplitTest, SequencesEqualLengthMismatch) {
  SequenceData a;
  a.t = {0};
  a.v_num = {1.0};
  a.has_num = {1};
  a.v_str = {""};
  a.has_str = {0};
  SequenceData b = a;
  b.t.push_back(1);
  b.v_num.push_back(1.0);
  b.has_num.push_back(1);
  b.v_str.emplace_back();
  b.has_str.push_back(0);
  EXPECT_FALSE(sequences_equal(a, b));
}

TEST(SplitTest, StringValuesCompared) {
  const auto ks = make_ks({
      {0, "s", 0.0, false, "on", true, "FC"},
      {10, "s", 0.0, false, "off", true, "KC"},
  });
  const SplitDataResult result = split_signals_data(engine(), ks);
  EXPECT_EQ(result.sequences.size(), 2u);  // labels differ -> no dedup
}

TEST(SplitTest, EmptyInput) {
  const auto ks = make_ks({});
  const SplitDataResult result = split_signals_data(engine(), ks);
  EXPECT_TRUE(result.sequences.empty());
  EXPECT_TRUE(result.correspondences.empty());
}

TEST(SplitTest, ManyPartitionsMergeInOrder) {
  std::vector<KsRow> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back({i, "a", static_cast<double>(i), true, "", false});
  }
  const auto table = make_ks(rows, (rows.size() + 7) / 8);
  ASSERT_EQ(table.num_partitions(), 8u);
  const SplitDataResult result = split_signals_data(engine(), table);
  ASSERT_EQ(result.sequences.size(), 1u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_DOUBLE_EQ(result.sequences[0].v_num[i], static_cast<double>(i));
  }
}

}  // namespace
}  // namespace ivt::core
