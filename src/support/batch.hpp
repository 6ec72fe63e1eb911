// SIMD-friendly batched kernel shapes shared by the colstore decoders and
// the branch-α hot loops (smoothing, SWAB error terms, SAX binning).
//
// Each kernel restructures its loop so the compiler's auto-vectorizer can
// work on it: block-transposed window sums (moving average),
// carry-unrolled prefix sums (delta decode), elementwise residual
// evaluation split from the ordered reduction (SWAB), and branchless
// breakpoint counting (SAX).
//
// Bit-exactness contract: every kernel performs the same floating-point
// operations in the same per-output order as the plain scalar loop —
// vectorization only runs independent outputs (or independent
// elementwise terms) side by side, never reassociates a reduction — so
// results are bit-identical to it, except which payload a NaN sum carries
// where two NaNs of different payloads meet (IEEE 754 leaves that open).
// tests/support/batch_test.cpp keeps the scalar loops as the oracle and
// compares bit for bit. Integer kernels are order-independent and exact
// by construction. No intrinsics: plain C++ the vectorizer recognizes, so
// every target the toolchain supports gets the win.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ivt::support::batch {

/// In-place inclusive prefix sum with wrapping two's-complement
/// arithmetic (the delta-decode accumulator of the .ivc t_ns column;
/// wrapping keeps adversarial deltas well-defined). Integer, therefore
/// exact.
inline void prefix_sum_wrapping(std::int64_t* values, std::size_t n) {
  // Carry-unrolled blocks of 4: the in-block sums are independent of the
  // running carry, so the compiler can schedule/vectorize them while the
  // serial dependency advances once per block instead of once per lane.
  std::uint64_t carry = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint64_t d0 = static_cast<std::uint64_t>(values[i]);
    const std::uint64_t d1 = static_cast<std::uint64_t>(values[i + 1]);
    const std::uint64_t d2 = static_cast<std::uint64_t>(values[i + 2]);
    const std::uint64_t d3 = static_cast<std::uint64_t>(values[i + 3]);
    const std::uint64_t s0 = d0;
    const std::uint64_t s1 = s0 + d1;
    const std::uint64_t s2 = s1 + d2;
    const std::uint64_t s3 = s2 + d3;
    values[i] = static_cast<std::int64_t>(carry + s0);
    values[i + 1] = static_cast<std::int64_t>(carry + s1);
    values[i + 2] = static_cast<std::int64_t>(carry + s2);
    values[i + 3] = static_cast<std::int64_t>(carry + s3);
    carry += s3;
  }
  for (; i < n; ++i) {
    carry += static_cast<std::uint64_t>(values[i]);
    values[i] = static_cast<std::int64_t>(carry);
  }
}

/// Centered moving average with clamped edges: out[i] = mean of
/// xs[i-half .. i+half] intersected with the range. Per-output summation
/// is left-to-right.
inline std::vector<double> moving_average(std::span<const double> xs,
                                          std::size_t half_window) {
  std::vector<double> out;
  out.reserve(xs.size());
  if (half_window == 0) {
    out.assign(xs.begin(), xs.end());
    return out;
  }
  const std::size_t n = xs.size();
  auto scalar_at = [&xs, half_window, n](std::size_t i) {
    const std::size_t lo = i >= half_window ? i - half_window : 0;
    const std::size_t hi = i + half_window + 1 < n ? i + half_window + 1 : n;
    double sum = 0.0;
    for (std::size_t j = lo; j < hi; ++j) sum += xs[j];
    return sum / static_cast<double>(hi - lo);
  };
  out.resize(n);
  const std::size_t window = 2 * half_window + 1;
  // Outputs in [first, last) have full (unclamped) windows; everything
  // else is an edge and stays on the scalar path.
  const std::size_t first = n > half_window ? half_window : n;
  const std::size_t last = n >= half_window + 1 ? n - half_window : 0;
  for (std::size_t i = 0; i < first; ++i) out[i] = scalar_at(i);
  for (std::size_t i = last > first ? last : first; i < n; ++i) {
    out[i] = scalar_at(i);
  }
  // Interior outputs in lane blocks of 4: each lane accumulates its own
  // window left-to-right, so lane l's additions are exactly the scalar
  // order for output b + l, and the inner 4-wide loop is what vectorizes.
  std::size_t b = first;
  for (; b + 4 <= last; b += 4) {
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    const double* base = xs.data() + (b - half_window);
    for (std::size_t j = 0; j < window; ++j) {
      for (std::size_t l = 0; l < 4; ++l) acc[l] += base[j + l];
    }
    for (std::size_t l = 0; l < 4; ++l) {
      out[b + l] = acc[l] / static_cast<double>(window);
    }
  }
  for (; b < last; ++b) out[b] = scalar_at(b);
  return out;
}

/// Σ (ys[i] - (slope·xs[i] + intercept))² over the first n pairs. The
/// residual terms are elementwise-independent (vectorizable); the
/// accumulation is strictly in index order.
inline double residual_sum_squares(std::span<const double> xs,
                                   std::span<const double> ys, double slope,
                                   double intercept) {
  const std::size_t n = xs.size() < ys.size() ? xs.size() : ys.size();
  double rss = 0.0;
  double sq[64];
  std::size_t i = 0;
  while (i < n) {
    const std::size_t block = (n - i) < 64 ? (n - i) : 64;
    for (std::size_t k = 0; k < block; ++k) {
      const double r = ys[i + k] - (slope * xs[i + k] + intercept);
      sq[k] = r * r;
    }
    for (std::size_t k = 0; k < block; ++k) rss += sq[k];
    i += block;
  }
  return rss;
}

/// SAX region of each value against ascending breakpoints, appended to
/// `out` as characters 'a' + region. region(v) = |{ bp : v >= bp }| —
/// identical to the first-exceeding-breakpoint walk for an ascending
/// table (and for NaN, where every comparison is false). The count form
/// is branchless and vectorizes over the breakpoints.
inline void sax_symbols(std::span<const double> values,
                        std::span<const double> breakpoints,
                        std::string& out) {
  out.reserve(out.size() + values.size());
  const std::size_t nb = breakpoints.size();
  for (const double v : values) {
    unsigned region = 0;
    for (std::size_t k = 0; k < nb; ++k) {
      region += v >= breakpoints[k] ? 1U : 0U;
    }
    out.push_back(static_cast<char>('a' + region));
  }
}

}  // namespace ivt::support::batch
