// SWAB — Sliding Window And Bottom-up time-series segmentation
// (Keogh, Chu, Hart, Pazzani: "An online algorithm for segmenting time
// series", ICDM 2001).
//
// Branch α uses SWAB to cut each cleaned numeric signal sequence into
// linear segments; each segment is then labeled with a SAX symbol and a
// trend, giving the paper's (trend, symbol) tuple per segment.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "algo/stats.hpp"

namespace ivt::algo {

/// One linear segment over [start, end) of the input series.
struct Segment {
  std::size_t start = 0;
  std::size_t end = 0;  ///< exclusive
  LineFit fit;          ///< least-squares line over (x = ts[i], y = xs[i])
  double error = 0.0;   ///< residual sum of squares of `fit`

  [[nodiscard]] std::size_t length() const { return end - start; }
  /// Fitted value at x.
  [[nodiscard]] double value_at(double x) const {
    return fit.slope * x + fit.intercept;
  }
};

struct SegmentationConfig {
  /// Residual-sum-of-squares budget per segment; a merge/extension that
  /// would exceed it is rejected.
  double max_error = 1.0;
  /// SWAB working-buffer capacity in points (the paper recommends holding
  /// roughly 5–6 segments' worth of data).
  std::size_t buffer_size = 100;
};

/// Classic offline bottom-up segmentation: start from 2-point segments,
/// repeatedly merge the cheapest adjacent pair while the merged error stays
/// within `max_error`. When the whole range's error is within `max_error`
/// by more than a rounding bound, every merge would be accepted, so the
/// range's own fit is returned without running them (same result, O(n)).
std::vector<Segment> bottom_up_segment(std::span<const double> ts,
                                       std::span<const double> xs,
                                       double max_error);

/// Online sliding-window segmentation (greedy left-to-right), used inside
/// SWAB to pull the next chunk into the buffer.
std::vector<Segment> sliding_window_segment(std::span<const double> ts,
                                            std::span<const double> xs,
                                            double max_error);

/// SWAB: maintain a buffer, run bottom-up on it, emit the leftmost segment,
/// refill with the next sliding-window segment. Produces offline-quality
/// segmentations with online (one-pass) behaviour. The refill's length is
/// found by binary search; it equals the one-point-at-a-time greedy walk's.
///
/// `ts` are the sample x-positions (timestamps); `xs` the values.
/// Both spans must have equal size. An empty input yields no segments.
std::vector<Segment> swab_segment(std::span<const double> ts,
                                  std::span<const double> xs,
                                  const SegmentationConfig& config = {});

/// Convenience overload with implicit unit-spaced timestamps 0,1,2,...
std::vector<Segment> swab_segment(std::span<const double> xs,
                                  const SegmentationConfig& config = {});

/// Fit + residual error for [start, end) — exposed for tests.
Segment fit_segment(std::span<const double> ts, std::span<const double> xs,
                    std::size_t start, std::size_t end);

}  // namespace ivt::algo
