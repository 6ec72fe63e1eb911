// Reference oracle for the branch-α/β kernels in src/algo: the Hampel
// outlier filter and SWAB segmentation, written literally.
//
//   hampel_outliers   for every element, copies its window, takes the
//                     median by nth_element, then the median of the
//                     absolute deviations from it (a second copy);
//                     non-finite values are flagged and the filter runs
//                     over the finite ones, in order.
//   bottom_up         starts from 2-point segments and merges the cheapest
//                     adjacent pair, refitting it, while the merged error
//                     stays within max_error.
//   swab              runs bottom_up on the whole buffer for every segment
//                     it emits, and grows each refill one point at a time,
//                     refitting the prefix from scratch at every step.
//   fit               least-squares line through the means, and the
//                     residual sum of squares summed in index order.
//
// It shares no code with src/algo: a test that compares the production
// kernels with it checks them against the definition, not against another
// production path. It is deliberately slow (quadratic in the window or
// buffer); use it on test-sized inputs only.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ivt::testref {

/// Median; averages the middle pair for even sizes. Precondition:
/// non-empty, no NaN.
inline double median(std::span<const double> xs) {
  std::vector<double> copy(xs.begin(), xs.end());
  const std::size_t mid = copy.size() / 2;
  std::nth_element(copy.begin(), copy.begin() + mid, copy.end());
  const double upper = copy[mid];
  if (copy.size() % 2 == 1) return upper;
  const double lower = *std::max_element(copy.begin(), copy.begin() + mid);
  return 0.5 * (lower + upper);
}

/// Median absolute deviation (raw, not scaled). Precondition: non-empty,
/// no NaN.
inline double median_absolute_deviation(std::span<const double> xs) {
  const double med = median(xs);
  std::vector<double> dev;
  dev.reserve(xs.size());
  for (double x : xs) dev.push_back(std::fabs(x - med));
  return median(dev);
}

/// The Hampel filter over finite values: flags |x - rolling median| >
/// threshold * 1.4826 * rolling MAD over the window [i - window, i +
/// window], clamped to the series (a window of 0 counts as 1).
inline std::vector<std::uint8_t> hampel_mask(std::span<const double> xs,
                                             double threshold,
                                             std::size_t window) {
  constexpr double kMadScale = 1.4826;
  std::vector<std::uint8_t> mask(xs.size(), 0);
  if (window == 0) window = 1;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::size_t lo = i >= window ? i - window : 0;
    const std::size_t hi =
        window < xs.size() - i ? i + window + 1 : xs.size();
    const auto win = xs.subspan(lo, hi - lo);
    const double med = median(win);
    const double mad = median_absolute_deviation(win);
    if (mad <= 0.0) continue;
    if (std::fabs(xs[i] - med) > threshold * kMadScale * mad) mask[i] = 1;
  }
  return mask;
}

/// `algo::detect_outliers` with the Hampel method: non-finite values are
/// flagged; the filter runs over the finite values, in order, and flags
/// nothing when fewer than 3 of them remain.
inline std::vector<std::uint8_t> hampel_outliers(std::span<const double> xs,
                                                 double threshold,
                                                 std::size_t window) {
  std::vector<double> finite;
  for (double x : xs) {
    if (std::isfinite(x)) finite.push_back(x);
  }
  std::vector<std::uint8_t> finite_mask(finite.size(), 0);
  if (finite.size() >= 3) finite_mask = hampel_mask(finite, threshold, window);
  std::vector<std::uint8_t> mask;
  std::size_t k = 0;
  for (double x : xs) {
    mask.push_back(std::isfinite(x) ? finite_mask[k++] : 1);
  }
  return mask;
}

/// One linear segment over [start, end).
struct Segment {
  std::size_t start = 0;
  std::size_t end = 0;
  double slope = 0.0;
  double intercept = 0.0;
  double error = 0.0;  ///< residual sum of squares
};

inline Segment fit(std::span<const double> ts, std::span<const double> xs,
                   std::size_t start, std::size_t end) {
  Segment seg;
  seg.start = start;
  seg.end = end;
  const std::size_t n = end - start;
  if (n == 0) return seg;
  double sum_t = 0.0;
  double sum_x = 0.0;
  for (std::size_t i = start; i < end; ++i) sum_t += ts[i];
  for (std::size_t i = start; i < end; ++i) sum_x += xs[i];
  const double mt = sum_t / static_cast<double>(n);
  const double mx = sum_x / static_cast<double>(n);
  double stt = 0.0;
  double stx = 0.0;
  for (std::size_t i = start; i < end; ++i) {
    const double dt = ts[i] - mt;
    stt += dt * dt;
    stx += dt * (xs[i] - mx);
  }
  if (stt > 0.0) seg.slope = stx / stt;
  seg.intercept = mx - seg.slope * mt;
  for (std::size_t i = start; i < end; ++i) {
    const double r = xs[i] - (seg.slope * ts[i] + seg.intercept);
    seg.error += r * r;
  }
  return seg;
}

inline std::vector<Segment> bottom_up(std::span<const double> ts,
                                      std::span<const double> xs,
                                      double max_error) {
  const std::size_t n = xs.size();
  std::vector<Segment> segments;
  if (n == 0) return segments;
  if (n == 1) return {fit(ts, xs, 0, 1)};
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    segments.push_back(fit(ts, xs, i, i + 2));
  }
  if (n % 2 == 1) segments.push_back(fit(ts, xs, n - 1, n));
  auto merge_cost = [&](std::size_t i) {
    return fit(ts, xs, segments[i].start, segments[i + 1].end).error;
  };
  std::vector<double> costs;
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    costs.push_back(merge_cost(i));
  }
  while (!costs.empty()) {
    const std::size_t best = static_cast<std::size_t>(
        std::min_element(costs.begin(), costs.end()) - costs.begin());
    if (costs[best] > max_error) break;
    segments[best] =
        fit(ts, xs, segments[best].start, segments[best + 1].end);
    segments.erase(segments.begin() + static_cast<std::ptrdiff_t>(best) + 1);
    costs.erase(costs.begin() + static_cast<std::ptrdiff_t>(best));
    if (best < costs.size()) costs[best] = merge_cost(best);
    if (best > 0) costs[best - 1] = merge_cost(best - 1);
  }
  return segments;
}

inline std::vector<Segment> swab(std::span<const double> ts,
                                 std::span<const double> xs, double max_error,
                                 std::size_t buffer_size) {
  const std::size_t n = xs.size();
  std::vector<Segment> out;
  if (n == 0) return out;
  buffer_size = std::max<std::size_t>(buffer_size, 4);
  if (n <= buffer_size) return bottom_up(ts, xs, max_error);
  std::size_t lo = 0;
  std::size_t hi = buffer_size;
  while (lo < n) {
    std::vector<Segment> local = bottom_up(
        ts.subspan(lo, hi - lo), xs.subspan(lo, hi - lo), max_error);
    if (hi >= n) {
      for (Segment seg : local) {
        seg.start += lo;
        seg.end += lo;
        out.push_back(seg);
      }
      break;
    }
    Segment leftmost = local.front();
    leftmost.start += lo;
    leftmost.end += lo;
    out.push_back(leftmost);
    lo = leftmost.end;
    const std::size_t remaining = hi > lo ? hi - lo : 0;
    if (remaining < buffer_size && hi < n) {
      const auto tail_ts = ts.subspan(hi);
      const auto tail_xs = xs.subspan(hi);
      std::size_t end = std::min<std::size_t>(2, tail_xs.size());
      while (end < tail_xs.size() && hi + end < lo + buffer_size) {
        if (fit(tail_ts, tail_xs, 0, end + 1).error > max_error) break;
        ++end;
      }
      hi = std::min(n, hi + end);
    }
    if (hi <= lo) hi = std::min(n, lo + buffer_size);
  }
  return out;
}

}  // namespace ivt::testref
