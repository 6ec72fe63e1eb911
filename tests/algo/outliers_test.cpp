#include "algo/outliers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

namespace ivt::algo {
namespace {

std::vector<double> base_series() {
  std::vector<double> xs;
  for (int i = 0; i < 50; ++i) xs.push_back(10.0 + 0.1 * (i % 5));
  return xs;
}

std::size_t count_flags(const std::vector<std::uint8_t>& mask) {
  return static_cast<std::size_t>(
      std::accumulate(mask.begin(), mask.end(), 0));
}

class OutlierMethodTest
    : public ::testing::TestWithParam<OutlierMethod> {};

TEST_P(OutlierMethodTest, FlagsInjectedSpike) {
  std::vector<double> xs = base_series();
  xs[25] = 500.0;
  OutlierConfig config;
  config.method = GetParam();
  const auto mask = detect_outliers(xs, config);
  EXPECT_EQ(mask[25], 1);
  EXPECT_LE(count_flags(mask), 3u);
}

TEST_P(OutlierMethodTest, CleanSeriesMostlyUnflagged) {
  OutlierConfig config;
  config.method = GetParam();
  const auto mask = detect_outliers(base_series(), config);
  EXPECT_LE(count_flags(mask), 1u);
}

TEST_P(OutlierMethodTest, ConstantSeriesNeverFlagged) {
  const std::vector<double> xs(30, 7.0);
  OutlierConfig config;
  config.method = GetParam();
  EXPECT_EQ(count_flags(detect_outliers(xs, config)), 0u);
}

TEST_P(OutlierMethodTest, TooShortSeriesNeverFlagged) {
  const std::vector<double> xs{1.0, 1000.0};
  OutlierConfig config;
  config.method = GetParam();
  EXPECT_EQ(count_flags(detect_outliers(xs, config)), 0u);
}

TEST_P(OutlierMethodTest, NonFiniteFlaggedAndLeftOutOfTheStatistics) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> finite = base_series();
  finite[25] = 500.0;
  // The same series with NaN and ±inf inserted at three places.
  std::vector<double> xs = finite;
  xs.insert(xs.begin() + 40, -kInf);
  xs.insert(xs.begin() + 20, kInf);
  xs.insert(xs.begin() + 3, std::numeric_limits<double>::quiet_NaN());
  OutlierConfig config;
  config.method = GetParam();
  const auto mask = detect_outliers(xs, config);
  const auto finite_mask = detect_outliers(finite, config);
  ASSERT_EQ(mask.size(), xs.size());
  std::size_t k = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (std::isfinite(xs[i])) {
      EXPECT_EQ(mask[i], finite_mask[k++]) << "index " << i;
    } else {
      EXPECT_EQ(mask[i], 1) << "index " << i;
    }
  }
  EXPECT_EQ(k, finite.size());
}

TEST_P(OutlierMethodTest, NonFiniteFlaggedInShortSeries) {
  const std::vector<double> xs{std::numeric_limits<double>::quiet_NaN(), 1.0,
                               1000.0,
                               -std::numeric_limits<double>::infinity()};
  OutlierConfig config;
  config.method = GetParam();
  EXPECT_EQ(detect_outliers(xs, config),
            (std::vector<std::uint8_t>{1, 0, 0, 1}));
}

INSTANTIATE_TEST_SUITE_P(AllMethods, OutlierMethodTest,
                         ::testing::Values(OutlierMethod::ZScore,
                                           OutlierMethod::Iqr,
                                           OutlierMethod::Hampel),
                         [](const auto& info) {
                           switch (info.param) {
                             case OutlierMethod::ZScore:
                               return "ZScore";
                             case OutlierMethod::Iqr:
                               return "Iqr";
                             case OutlierMethod::Hampel:
                               return "Hampel";
                           }
                           return "Unknown";
                         });

TEST(OutlierTest, HampelToleratesLevelShift) {
  // A genuine step (level change) must NOT be flagged by a local method:
  std::vector<double> xs(20, 1.0);
  for (int i = 20; i < 40; ++i) xs.push_back(50.0);
  OutlierConfig config;
  config.method = OutlierMethod::Hampel;
  config.window = 3;
  const auto mask = detect_outliers(xs, config);
  // Allow at most the immediate boundary points to be flagged.
  EXPECT_LE(count_flags(mask), 2u);
}

TEST(OutlierTest, ZScoreMasksNothingWhenSpreadZero) {
  std::vector<double> xs(10, 5.0);
  OutlierConfig config;
  config.method = OutlierMethod::ZScore;
  EXPECT_EQ(count_flags(detect_outliers(xs, config)), 0u);
}

TEST(OutlierTest, ThresholdControlsSensitivity) {
  std::vector<double> xs = base_series();
  xs[10] = 12.0;  // mild deviation
  OutlierConfig strict{OutlierMethod::ZScore, 1.0, 5};
  OutlierConfig loose{OutlierMethod::ZScore, 6.0, 5};
  EXPECT_GE(count_flags(detect_outliers(xs, strict)),
            count_flags(detect_outliers(xs, loose)));
}

TEST(OutlierTest, SplitByMaskPartitionsIndices) {
  const std::vector<std::uint8_t> mask{0, 1, 0, 0, 1};
  const OutlierSplit split = split_by_mask(mask);
  EXPECT_EQ(split.outliers, (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(split.clean, (std::vector<std::size_t>{0, 2, 3}));
}

TEST(OutlierTest, MultipleSpikesAllFound) {
  std::vector<double> xs = base_series();
  xs[5] = 400.0;
  xs[30] = -400.0;
  OutlierConfig config;
  config.method = OutlierMethod::Hampel;
  const auto mask = detect_outliers(xs, config);
  EXPECT_EQ(mask[5], 1);
  EXPECT_EQ(mask[30], 1);
}

}  // namespace
}  // namespace ivt::algo
