#include "algo/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/batch.hpp"

namespace ivt::algo {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  RunningStats rs;
  for (double x : xs) rs.add(x);
  return rs.variance();
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double median(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("median of empty range");
  std::vector<double> copy(xs.begin(), xs.end());
  const std::size_t mid = copy.size() / 2;
  std::nth_element(copy.begin(), copy.begin() + mid, copy.end());
  const double upper = copy[mid];
  if (copy.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(copy.begin(), copy.begin() + mid);
  return 0.5 * (lower + upper);
}

double quantile(std::span<const double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("quantile of empty range");
  q = std::clamp(q, 0.0, 1.0);
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  const double pos = q * static_cast<double>(copy.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, copy.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return copy[lo] * (1.0 - frac) + copy[hi] * frac;
}

double sorted_median(std::span<const double> sorted) {
  if (sorted.empty()) throw std::invalid_argument("median of empty range");
  const std::size_t mid = sorted.size() / 2;
  if (sorted.size() % 2 == 1) return sorted[mid];
  return 0.5 * (sorted[mid - 1] + sorted[mid]);
}

double sorted_median_absolute_deviation(std::span<const double> sorted,
                                        double center) {
  if (sorted.empty()) throw std::invalid_argument("median of empty range");
  // Rounding is monotone, so x - center is non-decreasing in x: the left
  // run [0, split) read backwards and the right run [split, n) read
  // forwards both give non-decreasing |x - center|. Merging them yields
  // the deviations in ascending order; stop at the upper middle.
  const std::size_t n = sorted.size();
  const std::size_t split = static_cast<std::size_t>(
      std::lower_bound(sorted.begin(), sorted.end(), center) -
      sorted.begin());
  std::size_t left = split;  // next left element is sorted[left - 1]
  std::size_t right = split;
  double previous = 0.0;
  double current = 0.0;
  for (std::size_t k = 0; k <= n / 2; ++k) {
    previous = current;
    const bool take_left =
        left > 0 && (right == n || std::fabs(sorted[left - 1] - center) <=
                                       std::fabs(sorted[right] - center));
    current = take_left ? std::fabs(sorted[--left] - center)
                        : std::fabs(sorted[right++] - center);
  }
  if (n % 2 == 1) return current;
  return 0.5 * (previous + current);
}

LineFit fit_line(std::span<const double> xs, std::span<const double> ys) {
  LineFit fit;
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n == 0) return fit;
  const double mx = mean(xs.first(n));
  const double my = mean(ys.first(n));
  double sxx = 0.0;
  double sxy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    sxx += dx * dx;
    sxy += dx * (ys[i] - my);
  }
  if (sxx > 0.0) fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  return fit;
}

double residual_sum_squares(std::span<const double> xs,
                            std::span<const double> ys, const LineFit& fit) {
  // Batched shape: elementwise residual terms vectorize, the
  // accumulation stays in index order — bit-identical to the scalar loop.
  return support::batch::residual_sum_squares(xs, ys, fit.slope,
                                              fit.intercept);
}

}  // namespace ivt::algo
