// Basic descriptive statistics used across the preprocessing branches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ivt::algo {

/// Welford online mean/variance accumulator (numerically stable).
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 for n < 2.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

double mean(std::span<const double> xs);
double variance(std::span<const double> xs);  ///< sample variance
double stddev(std::span<const double> xs);

/// Median; averages the middle pair for even sizes. Precondition: non-empty.
double median(std::span<const double> xs);

/// Linear-interpolated quantile, q in [0,1]. Precondition: non-empty.
double quantile(std::span<const double> xs, double q);

/// Median of an ascending range: the value `median` returns for the same
/// multiset, read in O(1). Precondition: non-empty.
double sorted_median(std::span<const double> sorted);

/// Median of |x - center| over an ascending range (the raw median absolute
/// deviation when `center` is its median), in O(size) without allocating.
/// The deviations of the values below `center`, read right to left, and
/// of the rest, read left to right, are each ascending, so the middle
/// order statistics come from merging the two runs. Precondition:
/// non-empty, no NaN.
double sorted_median_absolute_deviation(std::span<const double> sorted,
                                        double center);

/// Least-squares line fit y = slope*x + intercept over (xs[i], ys[i]).
/// Degenerate inputs (constant x, size < 2) yield slope 0 through the mean.
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
};
LineFit fit_line(std::span<const double> xs, std::span<const double> ys);

/// Sum of squared residuals of `fit` over the points.
double residual_sum_squares(std::span<const double> xs,
                            std::span<const double> ys, const LineFit& fit);

}  // namespace ivt::algo
