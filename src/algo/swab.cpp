#include "algo/swab.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

namespace ivt::algo {

namespace {

void check_sizes(std::span<const double> ts, std::span<const double> xs) {
  if (ts.size() != xs.size()) {
    throw std::invalid_argument("segmentation: ts/xs size mismatch");
  }
}

// Both SWAB shortcuts below rest on one fact: the least-squares residual
// R*(S) of a range S of points is at most R*(W) of any range W ⊇ S, since
// W's best line is one candidate line for S. So when the error of W is
// within max_error, so is the error of every range inside it, and
// bottom-up on W merges everything (its last merge is fit_segment over
// all of W), and a refill that reaches W passed every shorter prefix.
//
// The computed error c(S) = fit_segment(S).error is R*(S) plus rounding,
// so the fact holds for c only up to a margin. every_subrange_within,
// given cost = c(W) for W = all of ts/xs, decides only when c(W) is
// finite and below max_error by more than that margin; otherwise the
// caller takes the literal step. The margin, for W
// of n points with u = 2^-53 and γ = (n+2)u / (1 - (n+2)u):
//
//   T = max|t|, Y = max|y|, g = min (t[j+1] - t[j]) > 0,
//   A = max |y[j+1] - y[j]| / (t[j+1] - t[j]),
//   Â = A + sqrt(2n)·γ·(5AT + 2Y) / g,
//   D = sqrt(n)·(8γ·(ÂT + Y) + 2^-500),
//   c(S) ≤ (1 + γ)·(sqrt(c(W)·(1 + 2γ)) + 2D)² + 2^-1000  for all S ⊆ W.
//
// Derivation, in the standard model fl(a ∘ b) = (a ∘ b)(1 + δ), |δ| ≤ u,
// for a range S of m ≤ n points with exact means t̄, ȳ, sums sxx =
// Σ(t - t̄)², syy = Σ(y - ȳ)², least-squares slope a* and residuals r*:
//  1. An LS slope is a weighted mean of the consecutive slopes, so
//     |a*| ≤ A and syy ≤ A²·sxx; two points of S give sxx ≥ g²/2.
//  2. fit_line's means err by τ = |mx - t̄| ≤ γT and ψ ≤ γY. Its centred
//     sums are sxx_c = (sxx + mτ²)(1 ± γ) and sxy_c = sxy + m(t̄ - mx)·
//     (ȳ - my) ± γ·sqrt((sxx + mτ²)(syy + mψ²)). With 1 this gives
//     |â - a*|·sqrt(sxx) ≤ sqrt(m)·((3γ + u)AT + γY)(1 + O(γ)), and,
//     dividing by sqrt(sxx), |â| ≤ Â.
//  3. The computed residual at t_i is r*_i - (â - a*)(t_i - t̄) plus at
//     most (γ + 7u)|â|T + (γ + 4u)Y from the means, the rounded
//     intercept my - â·mx and the three operations of the residual. By
//     Minkowski's inequality over S, the 2-norm of the computed residuals
//     is at most sqrt(R*(S)) + sqrt(n)·γ·(6ÂT + 3Y) ≤ sqrt(R*(S)) + D,
//     and the ordered sum of their squares adds a factor (1 + γ).
//  4. Step 3's rounding terms, applied to W's own computed line (which
//     fits W no better than the LS line), give sqrt(R*(W)) ≤
//     sqrt(c(W)·(1 + 2γ)) + D.
//  5. R*(S) ≤ R*(W) joins 3 and 4 into the bound. Requiring g ≥ 2^-200
//     and T, Y, ÂT ≤ 2^200 keeps every intermediate of fit_line and
//     residual_sum_squares finite for n ≤ 2^20, and bounds what underflow
//     can add by the 2^-500 and 2^-1000 terms. The bound itself is
//     evaluated with a few roundings, then widened by 2^-40, and A with
//     its three roundings by another 2^-40, so neither reads low.
bool every_subrange_within(std::span<const double> ts,
                           std::span<const double> xs, double cost,
                           double max_error) {
  const std::size_t n = xs.size();
  if (n < 2 || n > (std::size_t{1} << 20)) return false;
  if (!std::isfinite(cost) || !(cost <= max_error)) return false;
  double t_max = 0.0;
  double y_max = 0.0;
  double slope_max = 0.0;
  double gap_min = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    t_max = std::max(t_max, std::fabs(ts[i]));
    y_max = std::max(y_max, std::fabs(xs[i]));
    if (i + 1 == n) break;
    const double gap = ts[i + 1] - ts[i];
    if (!(gap >= 0x1p-200)) return false;  // also rejects NaN
    gap_min = std::min(gap_min, gap);
    slope_max = std::max(slope_max, std::fabs(xs[i + 1] - xs[i]) / gap);
  }
  if (!(t_max <= 0x1p200 && y_max <= 0x1p200)) return false;
  const double nd = static_cast<double>(n);
  const double gamma = (nd + 2.0) * 0x1p-53 / (1.0 - (nd + 2.0) * 0x1p-53);
  slope_max *= 1.0 + 0x1p-40;
  const double a_hat =
      slope_max + std::sqrt(2.0 * nd) * gamma *
                      (5.0 * slope_max * t_max + 2.0 * y_max) / gap_min;
  if (!(a_hat * t_max <= 0x1p200)) return false;
  const double d =
      std::sqrt(nd) * (8.0 * gamma * (a_hat * t_max + y_max) + 0x1p-500);
  const double root = std::sqrt(cost * (1.0 + 2.0 * gamma)) + 2.0 * d;
  const double bound = (1.0 + gamma) * root * root + 0x1p-1000;
  return bound * (1.0 + 0x1p-40) <= max_error;
}

// The refill: one greedy sliding-window segment from the tail. Its first
// `first` points are taken unconditionally; it then grows one point at a
// time up to `cap` points and stops before the first prefix [0, k) whose
// error exceeds max_error.
//
// Found by binary search for that first failing k. A probe that fails
// (error > max_error) is the same fit_segment call the one-point loop
// makes, so the loop stops at or before it; a probe that passes with a
// margin (every_subrange_within) passes every shorter prefix as well. A
// probe in between is walked one point at a time, as the loop does.
struct Refill {
  std::size_t length = 0;
  /// fit_segment over [0, length) when the search ended on a probe that
  /// passed with a margin: bottom_up_segment over exactly these points
  /// makes the same fit and the same check, and returns this segment.
  std::optional<Segment> whole;
};

Refill refill(std::span<const double> ts, std::span<const double> xs,
              std::size_t first, std::size_t cap, double max_error) {
  // Invariant: prefixes up to out.length points pass; `bad` fails, or is
  // cap+1.
  Refill out{first, std::nullopt};
  std::size_t bad = cap + 1;
  while (bad - out.length > 1) {
    const std::size_t mid = out.length + (bad - out.length) / 2;
    Segment probe = fit_segment(ts, xs, 0, mid);
    if (probe.error > max_error) {
      bad = mid;
    } else if (every_subrange_within(ts.first(mid), xs.first(mid),
                                     probe.error, max_error)) {
      out = Refill{mid, probe};
    } else {
      for (std::size_t k = out.length + 1; k < bad; ++k) {
        if (fit_segment(ts, xs, 0, k).error > max_error) {
          return Refill{k - 1, std::nullopt};
        }
      }
      return Refill{bad - 1, std::nullopt};
    }
  }
  return out;
}

}  // namespace

Segment fit_segment(std::span<const double> ts, std::span<const double> xs,
                    std::size_t start, std::size_t end) {
  Segment seg;
  seg.start = start;
  seg.end = end;
  const auto tsub = ts.subspan(start, end - start);
  const auto xsub = xs.subspan(start, end - start);
  seg.fit = fit_line(tsub, xsub);
  seg.error = residual_sum_squares(tsub, xsub, seg.fit);
  return seg;
}

std::vector<Segment> bottom_up_segment(std::span<const double> ts,
                                       std::span<const double> xs,
                                       double max_error) {
  check_sizes(ts, xs);
  const std::size_t n = xs.size();
  std::vector<Segment> segments;
  if (n == 0) return segments;
  if (n == 1) {
    segments.push_back(fit_segment(ts, xs, 0, 1));
    return segments;
  }
  // Every merge would be accepted, and the last one is this very fit.
  Segment whole = fit_segment(ts, xs, 0, n);
  if (every_subrange_within(ts, xs, whole.error, max_error)) {
    segments.push_back(whole);
    return segments;
  }

  // Initial fine segmentation: pairs of points.
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    segments.push_back(fit_segment(ts, xs, i, i + 2));
  }
  if (n % 2 == 1) segments.push_back(fit_segment(ts, xs, n - 1, n));

  // Merge cost of segments[i] with segments[i+1].
  auto merge_cost = [&](std::size_t i) {
    return fit_segment(ts, xs, segments[i].start, segments[i + 1].end).error;
  };
  std::vector<double> costs;
  costs.reserve(segments.size());
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    costs.push_back(merge_cost(i));
  }

  while (!costs.empty()) {
    const std::size_t best = static_cast<std::size_t>(
        std::min_element(costs.begin(), costs.end()) - costs.begin());
    if (costs[best] > max_error) break;
    segments[best] = fit_segment(ts, xs, segments[best].start,
                                 segments[best + 1].end);
    segments.erase(segments.begin() + static_cast<std::ptrdiff_t>(best) + 1);
    costs.erase(costs.begin() + static_cast<std::ptrdiff_t>(best));
    if (best < costs.size()) costs[best] = merge_cost(best);
    if (best > 0) costs[best - 1] = merge_cost(best - 1);
  }
  return segments;
}

std::vector<Segment> sliding_window_segment(std::span<const double> ts,
                                            std::span<const double> xs,
                                            double max_error) {
  check_sizes(ts, xs);
  std::vector<Segment> segments;
  const std::size_t n = xs.size();
  std::size_t anchor = 0;
  while (anchor < n) {
    std::size_t end = std::min(anchor + 2, n);
    Segment seg = fit_segment(ts, xs, anchor, end);
    while (end < n) {
      Segment grown = fit_segment(ts, xs, anchor, end + 1);
      if (grown.error > max_error) break;
      seg = grown;
      ++end;
    }
    segments.push_back(seg);
    anchor = end;
  }
  return segments;
}

std::vector<Segment> swab_segment(std::span<const double> ts,
                                  std::span<const double> xs,
                                  const SegmentationConfig& config) {
  check_sizes(ts, xs);
  const std::size_t n = xs.size();
  std::vector<Segment> out;
  if (n == 0) return out;
  const std::size_t buffer_size = std::max<std::size_t>(config.buffer_size, 4);
  if (n <= buffer_size) return bottom_up_segment(ts, xs, config.max_error);

  // Buffer is the window [lo, hi) of the input.
  std::size_t lo = 0;
  std::size_t hi = std::min(buffer_size, n);
  // Bottom-up of the buffer, when the refill that made it has fit it.
  std::optional<Segment> settled;
  while (lo < n) {
    const auto tbuf = ts.subspan(lo, hi - lo);
    const auto xbuf = xs.subspan(lo, hi - lo);
    std::vector<Segment> local =
        settled ? std::vector<Segment>{*settled}
                : bottom_up_segment(tbuf, xbuf, config.max_error);
    settled.reset();
    // Emit the leftmost segment (it is final: bottom-up will not change it
    // once more data arrives, per the SWAB argument), unless the buffer
    // already covers the rest of the series — then everything is final.
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

    // Refill: extend the right edge by one sliding-window segment worth of
    // points (the "best line" step of SWAB).
    const std::size_t remaining_buffer = hi > lo ? hi - lo : 0;
    if (remaining_buffer < buffer_size && hi < n) {
      const std::size_t first = std::min<std::size_t>(2, n - hi);
      const std::size_t cap =
          hi + first < lo + buffer_size
              ? std::min(n - hi, lo + buffer_size - hi)
              : first;
      const Refill grown = refill(ts.subspan(hi), xs.subspan(hi), first,
                                  cap, config.max_error);
      // The leftmost segment used up the buffer, so the refill is all of
      // the next one.
      if (lo == hi) settled = grown.whole;
      hi = std::min(n, hi + grown.length);
    }
    if (hi <= lo) hi = std::min(n, lo + buffer_size);
  }
  return out;
}

std::vector<Segment> swab_segment(std::span<const double> xs,
                                  const SegmentationConfig& config) {
  std::vector<double> ts(xs.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    ts[i] = static_cast<double>(i);
  }
  return swab_segment(ts, xs, config);
}

}  // namespace ivt::algo
