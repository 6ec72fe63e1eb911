// Outlier detection for signal instance sequences.
//
// The paper's branches α and β split a sequence into outliers (kept as
// potential errors and merged back at the end) and a cleaned remainder.
// Three standard detectors are provided; Hampel is the default used by the
// pipeline because it is robust on the step-like automotive signals.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ivt::algo {

enum class OutlierMethod : std::uint8_t {
  ZScore,  ///< |x - mean| > threshold * stddev
  Iqr,     ///< outside [Q1 - k*IQR, Q3 + k*IQR]
  Hampel,  ///< |x - rolling median| > threshold * 1.4826 * rolling MAD
};

struct OutlierConfig {
  OutlierMethod method = OutlierMethod::Hampel;
  /// ZScore: stddev multiples. Iqr: IQR multiples. Hampel: scaled-MAD
  /// multiples.
  double threshold = 3.0;
  /// Hampel rolling window half-width.
  std::size_t window = 5;
};

/// Per-element outlier mask (1 = outlier).
///
/// Non-finite values (NaN, ±inf), whatever the method: each is always
/// flagged, so a branch merges it back as a potential error ("outlier
/// v=nan"), and the method runs over the remaining finite values in their
/// order, as if the non-finite ones were absent. No statistic is ever
/// taken over a non-finite value. Of the finite values, none is flagged
/// when fewer than 3 of them remain or their spread is zero.
std::vector<std::uint8_t> detect_outliers(std::span<const double> xs,
                                          const OutlierConfig& config = {});

/// Split indices by mask: (outlier_indices, clean_indices).
struct OutlierSplit {
  std::vector<std::size_t> outliers;
  std::vector<std::size_t> clean;
};
OutlierSplit split_by_mask(std::span<const std::uint8_t> mask);

}  // namespace ivt::algo
