#include "algo/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ivt::algo {
namespace {

TEST(RunningStatsTest, MeanAndVariance) {
  RunningStats rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_NEAR(rs.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(RunningStatsTest, SingleValueHasZeroVariance) {
  RunningStats rs;
  rs.add(3.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.stddev(), 0.0);
}

TEST(StatsTest, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(StatsTest, MeanMatchesManual) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(StatsTest, MedianOddEven) {
  const std::vector<double> odd{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(odd), 3.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(StatsTest, MedianEmptyThrows) {
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(StatsTest, QuantileEndpointsAndMid) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.0);
}

TEST(StatsTest, QuantileInterpolates) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.3), 3.0);
}

TEST(StatsTest, SortedMedianOddEven) {
  const std::vector<double> odd{1.0, 3.0, 5.0};
  EXPECT_DOUBLE_EQ(sorted_median(odd), 3.0);
  const std::vector<double> even{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(sorted_median(even), 2.5);
  EXPECT_THROW(sorted_median({}), std::invalid_argument);
}

TEST(StatsTest, SortedMedianAbsoluteDeviation) {
  const std::vector<double> xs{1.0, 1.0, 2.0, 2.0, 4.0, 6.0, 9.0};
  // median = 2; |x - 2| = {1,1,0,0,2,4,7}; median of that = 1.
  EXPECT_DOUBLE_EQ(sorted_median_absolute_deviation(xs, 2.0), 1.0);
  // Even size: |x - 2.5| = {1.5,0.5,0.5,1.5} averages the middle pair.
  const std::vector<double> even{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(sorted_median_absolute_deviation(even, 2.5), 1.0);
  // Every value on one side of the center.
  const std::vector<double> above{3.0, 4.0, 10.0};
  EXPECT_DOUBLE_EQ(sorted_median_absolute_deviation(above, 0.0), 4.0);
}

TEST(StatsTest, FitLineExact) {
  const std::vector<double> xs{0.0, 1.0, 2.0, 3.0};
  const std::vector<double> ys{1.0, 3.0, 5.0, 7.0};
  const LineFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(residual_sum_squares(xs, ys, fit), 0.0, 1e-12);
}

TEST(StatsTest, FitLineConstantXIsFlat) {
  const std::vector<double> xs{2.0, 2.0, 2.0};
  const std::vector<double> ys{1.0, 2.0, 3.0};
  const LineFit fit = fit_line(xs, ys);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);  // passes through mean y
}

TEST(StatsTest, FitLineEmptyIsZero) {
  const LineFit fit = fit_line({}, {});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 0.0);
}

TEST(StatsTest, ResidualsPositiveForNoisyData) {
  const std::vector<double> xs{0.0, 1.0, 2.0};
  const std::vector<double> ys{0.0, 2.0, 0.0};
  const LineFit fit = fit_line(xs, ys);
  EXPECT_GT(residual_sum_squares(xs, ys, fit), 0.0);
}

TEST(StatsTest, VarianceAgreesWithRunningStats) {
  const std::vector<double> xs{1.0, 4.0, 9.0, 16.0, 25.0};
  RunningStats rs;
  for (double x : xs) rs.add(x);
  EXPECT_NEAR(variance(xs), rs.variance(), 1e-9);
}

}  // namespace
}  // namespace ivt::algo
