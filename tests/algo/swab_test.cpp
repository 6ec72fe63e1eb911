#include "algo/swab.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ivt::algo {
namespace {

std::vector<double> unit_ts(std::size_t n) {
  std::vector<double> ts(n);
  for (std::size_t i = 0; i < n; ++i) ts[i] = static_cast<double>(i);
  return ts;
}

/// Piecewise linear: up-slope then flat then down-slope.
std::vector<double> three_phase(std::size_t per_phase = 40) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < per_phase; ++i) {
    xs.push_back(static_cast<double>(i));
  }
  for (std::size_t i = 0; i < per_phase; ++i) {
    xs.push_back(static_cast<double>(per_phase - 1));
  }
  for (std::size_t i = 0; i < per_phase; ++i) {
    xs.push_back(static_cast<double>(per_phase - 1) -
                 static_cast<double>(i));
  }
  return xs;
}

void expect_cover(const std::vector<Segment>& segments, std::size_t n) {
  ASSERT_FALSE(segments.empty());
  EXPECT_EQ(segments.front().start, 0u);
  EXPECT_EQ(segments.back().end, n);
  for (std::size_t i = 1; i < segments.size(); ++i) {
    EXPECT_EQ(segments[i].start, segments[i - 1].end) << "gap at " << i;
  }
}

TEST(FitSegmentTest, PerfectLineZeroError) {
  const auto ts = unit_ts(10);
  std::vector<double> xs;
  for (double t : ts) xs.push_back(3.0 * t + 1.0);
  const Segment seg = fit_segment(ts, xs, 0, 10);
  EXPECT_NEAR(seg.fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(seg.error, 0.0, 1e-9);
}

TEST(BottomUpTest, PerfectLineMergesToOneSegment) {
  const auto ts = unit_ts(100);
  std::vector<double> xs;
  for (double t : ts) xs.push_back(0.5 * t);
  const auto segments = bottom_up_segment(ts, xs, 0.01);
  EXPECT_EQ(segments.size(), 1u);
  expect_cover(segments, xs.size());
}

TEST(BottomUpTest, ThreePhaseFindsAboutThreeSegments) {
  const auto xs = three_phase();
  const auto ts = unit_ts(xs.size());
  const auto segments = bottom_up_segment(ts, xs, 2.0);
  expect_cover(segments, xs.size());
  EXPECT_GE(segments.size(), 3u);
  EXPECT_LE(segments.size(), 6u);
}

TEST(BottomUpTest, TinyInputs) {
  const auto ts1 = unit_ts(1);
  const std::vector<double> xs1{5.0};
  EXPECT_EQ(bottom_up_segment(ts1, xs1, 1.0).size(), 1u);
  EXPECT_TRUE(bottom_up_segment({}, {}, 1.0).empty());
}

TEST(BottomUpTest, ZeroBudgetKeepsFineSegments) {
  // Noisy data with zero error budget: nothing merges beyond pairs.
  std::vector<double> xs;
  for (int i = 0; i < 20; ++i) xs.push_back(i % 2 == 0 ? 0.0 : 10.0);
  const auto ts = unit_ts(xs.size());
  const auto segments = bottom_up_segment(ts, xs, 1e-9);
  EXPECT_GE(segments.size(), 9u);
  expect_cover(segments, xs.size());
}

TEST(SlidingWindowTest, CoversAndRespectsBudget) {
  const auto xs = three_phase();
  const auto ts = unit_ts(xs.size());
  const auto segments = sliding_window_segment(ts, xs, 2.0);
  expect_cover(segments, xs.size());
  for (const Segment& seg : segments) {
    if (seg.length() > 2) {
      EXPECT_LE(seg.error, 2.0 + 1e-9);
    }
  }
}

TEST(SwabTest, MatchesBottomUpOnSmallInput) {
  const auto xs = three_phase(10);  // 30 points < default buffer
  const auto ts = unit_ts(xs.size());
  SegmentationConfig config;
  config.max_error = 2.0;
  const auto swab = swab_segment(ts, xs, config);
  const auto bu = bottom_up_segment(ts, xs, 2.0);
  ASSERT_EQ(swab.size(), bu.size());
  for (std::size_t i = 0; i < swab.size(); ++i) {
    EXPECT_EQ(swab[i].start, bu[i].start);
    EXPECT_EQ(swab[i].end, bu[i].end);
  }
}

TEST(SwabTest, LongInputCoversEverything) {
  const auto xs = three_phase(100);  // 300 points > buffer 120
  const auto ts = unit_ts(xs.size());
  SegmentationConfig config;
  config.max_error = 2.0;
  config.buffer_size = 60;
  const auto segments = swab_segment(ts, xs, config);
  expect_cover(segments, xs.size());
  EXPECT_GE(segments.size(), 3u);
}

TEST(SwabTest, SineSegmentsTrackSlopeSigns) {
  std::vector<double> xs;
  const std::size_t n = 400;
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(std::sin(2.0 * M_PI * static_cast<double>(i) / 200.0));
  }
  const auto ts = unit_ts(n);
  SegmentationConfig config;
  config.max_error = 0.05;
  config.buffer_size = 80;
  const auto segments = swab_segment(ts, xs, config);
  expect_cover(segments, n);
  // A sine over 2 periods needs a healthy number of linear pieces.
  EXPECT_GE(segments.size(), 4u);
}

TEST(SwabTest, UnitSpacedOverloadAgrees) {
  const auto xs = three_phase(20);
  SegmentationConfig config;
  config.max_error = 2.0;
  const auto a = swab_segment(xs, config);
  const auto b = swab_segment(unit_ts(xs.size()), xs, config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start);
  }
}

TEST(SwabTest, SizeMismatchThrows) {
  const std::vector<double> ts{0.0, 1.0};
  const std::vector<double> xs{1.0};
  EXPECT_THROW(swab_segment(ts, xs, {}), std::invalid_argument);
}

TEST(SwabTest, EmptyInput) {
  const std::vector<double> empty;
  EXPECT_TRUE(swab_segment(std::span<const double>(empty),
                           SegmentationConfig{})
                  .empty());
}

TEST(SegmentTest, ValueAtUsesFit) {
  Segment seg;
  seg.fit = {2.0, 1.0};
  EXPECT_DOUBLE_EQ(seg.value_at(3.0), 7.0);
}

}  // namespace
}  // namespace ivt::algo
