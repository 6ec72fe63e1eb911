#include "algo/outliers.hpp"

#include <algorithm>
#include <cmath>

#include "algo/stats.hpp"

namespace ivt::algo {

namespace {

std::vector<std::uint8_t> zscore_mask(std::span<const double> xs,
                                      double threshold) {
  std::vector<std::uint8_t> mask(xs.size(), 0);
  const double mu = mean(xs);
  const double sd = stddev(xs);
  if (sd <= 0.0) return mask;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (std::fabs(xs[i] - mu) > threshold * sd) mask[i] = 1;
  }
  return mask;
}

std::vector<std::uint8_t> iqr_mask(std::span<const double> xs,
                                   double threshold) {
  std::vector<std::uint8_t> mask(xs.size(), 0);
  const double q1 = quantile(xs, 0.25);
  const double q3 = quantile(xs, 0.75);
  const double iqr = q3 - q1;
  if (iqr <= 0.0) return mask;
  const double lo = q1 - threshold * iqr;
  const double hi = q3 + threshold * iqr;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] < lo || xs[i] > hi) mask[i] = 1;
  }
  return mask;
}

std::vector<std::uint8_t> hampel_mask(std::span<const double> xs,
                                      double threshold, std::size_t window) {
  // 1.4826 rescales MAD to the stddev of a Gaussian.
  constexpr double kMadScale = 1.4826;
  const std::size_t n = xs.size();
  std::vector<std::uint8_t> mask(n, 0);
  if (window == 0) window = 1;
  // Element i's window is xs[lo, hi) with lo = i - window and hi = i +
  // window + 1, both clamped to the series. `sorted` holds that window's
  // multiset in ascending order: each step erases the leaving value and
  // inserts the arriving one, so the median and the MAD are order
  // statistics of the same multiset the definition takes them over, read
  // without copying or allocating.
  // Equal values are interchangeable here; a -0.0 standing in for a +0.0
  // changes neither |x - med| nor any comparison below.
  std::vector<double> sorted;
  sorted.reserve(window < n ? 2 * window + 1 : n);
  std::size_t in = 0;   // next value to insert
  std::size_t out = 0;  // next value to erase
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= window ? i - window : 0;
    const std::size_t hi = window < n - i ? i + window + 1 : n;
    for (; out < lo; ++out) {
      sorted.erase(std::lower_bound(sorted.begin(), sorted.end(), xs[out]));
    }
    for (; in < hi; ++in) {
      sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), xs[in]),
                    xs[in]);
    }
    const double med = sorted_median(sorted);
    const double mad = sorted_median_absolute_deviation(sorted, med);
    if (mad <= 0.0) continue;  // flat window: nothing is an outlier
    if (std::fabs(xs[i] - med) > threshold * kMadScale * mad) mask[i] = 1;
  }
  return mask;
}

}  // namespace

std::vector<std::uint8_t> detect_outliers(std::span<const double> xs,
                                          const OutlierConfig& config) {
  auto run_method = [&config](std::span<const double> values) {
    if (values.size() < 3) return std::vector<std::uint8_t>(values.size(), 0);
    switch (config.method) {
      case OutlierMethod::ZScore:
        return zscore_mask(values, config.threshold);
      case OutlierMethod::Iqr:
        return iqr_mask(values, config.threshold);
      case OutlierMethod::Hampel:
        return hampel_mask(values, config.threshold, config.window);
    }
    return std::vector<std::uint8_t>(values.size(), 0);
  };
  const auto is_finite = [](double x) { return std::isfinite(x); };
  if (std::all_of(xs.begin(), xs.end(), is_finite)) return run_method(xs);

  // A non-finite value is always an outlier, and the method sees only the
  // finite values, in order.
  std::vector<double> finite;
  finite.reserve(xs.size());
  for (const double x : xs) {
    if (is_finite(x)) finite.push_back(x);
  }
  const std::vector<std::uint8_t> finite_mask = run_method(finite);
  std::vector<std::uint8_t> mask(xs.size(), 1);
  std::size_t k = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (is_finite(xs[i])) mask[i] = finite_mask[k++];
  }
  return mask;
}

OutlierSplit split_by_mask(std::span<const std::uint8_t> mask) {
  OutlierSplit split;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    (mask[i] != 0 ? split.outliers : split.clean).push_back(i);
  }
  return split;
}

}  // namespace ivt::algo
