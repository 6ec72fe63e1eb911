// Bit-exactness of the batched kernels in support/batch.hpp against the
// plain scalar loops they restructure. The scalar loops below are the
// oracle: every kernel must return the same bits (std::bit_cast, so NaN
// payloads and the sign of zero count) over seeded inputs that include
// NaN, ±inf, −0.0, subnormals and 1e300, at every size from 0 to 260 —
// below one 4-lane block, across the 64-term residual blocks, and with
// windows wider than the input. The one exception, which batch.hpp's
// contract leaves open, is the payload of a sum where NaNs of different
// payloads meet: a moving-average window or a residual sum (see
// ResidualSumSquaresMatchesScalarBitForBit).
#include "support/batch.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

namespace ivt::support::batch {
namespace {

// ---- the scalar oracle -----------------------------------------------------

void scalar_prefix_sum_wrapping(std::int64_t* values, std::size_t n) {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    carry += static_cast<std::uint64_t>(values[i]);
    values[i] = static_cast<std::int64_t>(carry);
  }
}

std::vector<double> scalar_moving_average(std::span<const double> xs,
                                          std::size_t half_window) {
  std::vector<double> out;
  out.reserve(xs.size());
  if (half_window == 0) {
    out.assign(xs.begin(), xs.end());
    return out;
  }
  const std::size_t n = xs.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= half_window ? i - half_window : 0;
    const std::size_t hi = i + half_window + 1 < n ? i + half_window + 1 : n;
    double sum = 0.0;
    for (std::size_t j = lo; j < hi; ++j) sum += xs[j];
    out.push_back(sum / static_cast<double>(hi - lo));
  }
  return out;
}

double scalar_residual_sum_squares(std::span<const double> xs,
                                   std::span<const double> ys, double slope,
                                   double intercept) {
  const std::size_t n = xs.size() < ys.size() ? xs.size() : ys.size();
  double rss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = ys[i] - (slope * xs[i] + intercept);
    rss += r * r;
  }
  return rss;
}

void scalar_sax_symbols(std::span<const double> values,
                        std::span<const double> breakpoints,
                        std::string& out) {
  for (const double v : values) {
    std::size_t region = 0;
    while (region < breakpoints.size() && v >= breakpoints[region]) {
      ++region;
    }
    out.push_back(static_cast<char>('a' + region));
  }
}

// ---- inputs ----------------------------------------------------------------

constexpr std::size_t kMaxSize = 260;

/// The NaN this machine's arithmetic produces (inf − inf), computed at
/// run time: a compiler folding the expression may pick another payload.
double default_nan() {
  volatile double inf = std::numeric_limits<double>::infinity();
  return inf - inf;
}

/// Which values an input may hold: plain finite values; finite values
/// with the awkward ones mixed in (−0.0, subnormals, ±1e300); those plus
/// ±inf and the one NaN arithmetic also produces; or those plus NaNs of
/// four payloads.
enum class Mix { Finite, Edges, OneNan, All };

double edge_value(std::mt19937_64& rng, Mix mix) {
  static const double kEdges[] = {
      -0.0,
      0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,
      1e300,
      -1e300,
  };
  // The first three are in OneNan; All adds the other payloads.
  static const double kNonFinite[] = {
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      default_nan(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::bit_cast<double>(std::uint64_t{0x7FF8'0000'0000'BEEFULL}),
  };
  constexpr std::size_t kNumEdges = std::size(kEdges);
  std::size_t span = kNumEdges;
  if (mix == Mix::OneNan) span += 3;
  if (mix == Mix::All) span += std::size(kNonFinite);
  const std::size_t k = std::uniform_int_distribution<std::size_t>(
      0, span - 1)(rng);
  return k < kNumEdges ? kEdges[k] : kNonFinite[k - kNumEdges];
}

std::vector<double> make_values(std::mt19937_64& rng, std::size_t n,
                                Mix mix) {
  std::normal_distribution<double> normal(0.0, 100.0);
  std::uniform_int_distribution<int> one_in(0, 7);
  std::vector<double> out(n);
  for (double& v : out) {
    v = mix != Mix::Finite && one_in(rng) == 0 ? edge_value(rng, mix)
                                               : normal(rng);
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every output has the scalar oracle's bits, except that a NaN output
/// may carry another NaN payload when `nan_payload_open`.
void expect_same_bits(const std::vector<double>& batched,
                      const std::vector<double>& scalar,
                      bool nan_payload_open, const std::string& where) {
  ASSERT_EQ(batched.size(), scalar.size()) << where;
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    if (nan_payload_open && std::isnan(batched[i]) && std::isnan(scalar[i])) {
      continue;
    }
    ASSERT_EQ(bits(batched[i]), bits(scalar[i]))
        << where << " output " << i << ": " << batched[i] << " vs "
        << scalar[i];
  }
}

/// Half-windows to try at size n: every one from 0 to n + 2 while n is
/// small, then the small ones, those around n/2 (where n <= 2·half
/// starts) and those around n.
std::vector<std::size_t> half_windows(std::size_t n) {
  std::vector<std::size_t> out;
  if (n <= 64) {
    for (std::size_t h = 0; h <= n + 2; ++h) out.push_back(h);
    return out;
  }
  for (std::size_t h = 0; h <= 8; ++h) out.push_back(h);
  for (std::size_t h = n / 2 - 2; h <= n / 2 + 2; ++h) out.push_back(h);
  for (std::size_t h = n - 2; h <= n + 2; ++h) out.push_back(h);
  return out;
}

// ---- the kernels -----------------------------------------------------------

TEST(BatchTest, PrefixSumWrappingMatchesScalar) {
  std::mt19937_64 rng(11);
  const std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::uniform_int_distribution<std::int64_t> any(kMin, kMax);
  std::uniform_int_distribution<std::int64_t> small(-1000, 1000);
  std::uniform_int_distribution<int> pick(0, 5);
  for (std::size_t n = 0; n <= kMaxSize; ++n) {
    std::vector<std::int64_t> deltas(n);
    for (std::int64_t& d : deltas) {
      switch (pick(rng)) {
        case 0: d = kMin; break;
        case 1: d = kMax; break;
        case 2: d = any(rng); break;
        default: d = small(rng); break;
      }
    }
    std::vector<std::int64_t> batched = deltas;
    std::vector<std::int64_t> scalar = deltas;
    prefix_sum_wrapping(batched.data(), n);
    scalar_prefix_sum_wrapping(scalar.data(), n);
    ASSERT_EQ(batched, scalar) << "n=" << n;
  }
}

TEST(BatchTest, PrefixSumWrapsLikeUnsignedArithmetic) {
  std::int64_t values[] = {std::numeric_limits<std::int64_t>::max(), 1, -1,
                           std::numeric_limits<std::int64_t>::min(), 0};
  prefix_sum_wrapping(values, std::size(values));
  EXPECT_EQ(values[0], std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(values[1], std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(values[2], std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(values[3], -1);
  EXPECT_EQ(values[4], -1);
}

TEST(BatchTest, MovingAverageMatchesScalarBitForBit) {
  // A window sum adds NaNs of different payloads under Mix::All, and which
  // one an addition returns depends on its operand order, which a
  // compiler may swap. So there only NaN itself is pinned; under
  // Mix::OneNan every bit is.
  std::mt19937_64 rng(12);
  for (const Mix mix : {Mix::Finite, Mix::Edges, Mix::OneNan, Mix::All}) {
    for (std::size_t n = 0; n <= kMaxSize; ++n) {
      const std::vector<double> xs = make_values(rng, n, mix);
      for (const std::size_t half : half_windows(n)) {
        expect_same_bits(moving_average(xs, half),
                         scalar_moving_average(xs, half), mix == Mix::All,
                         "mix=" + std::to_string(static_cast<int>(mix)) +
                             " n=" + std::to_string(n) +
                             " half_window=" + std::to_string(half));
      }
    }
  }
}

TEST(BatchTest, ResidualSumSquaresMatchesScalarBitForBit) {
  // The sum adds the squared residuals in index order, and once it is NaN
  // every later NaN term meets it. IEEE 754 leaves open which of two NaNs
  // an addition returns, and a compiler may swap the operands of a
  // commutative add, so where NaNs of different payloads meet only NaN
  // itself is pinned (Mix::All). With one NaN payload (Mix::OneNan: the
  // inputs' NaN is the one inf − inf and 0 · inf produce) every bit is.
  // SWAB only compares the sum against thresholds, where every NaN is
  // alike.
  std::mt19937_64 rng(13);
  const double kLines[][2] = {
      {0.0, 0.0},
      {1.5, -2.25},
      {-0.0, -0.0},
      {1e300, 0.0},
      {0.0, std::numeric_limits<double>::infinity()},
      {default_nan(), 1.0},
  };
  for (const Mix mix : {Mix::Finite, Mix::Edges, Mix::OneNan, Mix::All}) {
    for (std::size_t n = 0; n <= kMaxSize; ++n) {
      const std::vector<double> xs = make_values(rng, n, mix);
      // ys one longer than xs on odd sizes: the kernel takes the shorter.
      const std::vector<double> ys = make_values(rng, n + n % 2, mix);
      for (const auto& [slope, intercept] : kLines) {
        const double batched = residual_sum_squares(xs, ys, slope, intercept);
        const double scalar =
            scalar_residual_sum_squares(xs, ys, slope, intercept);
        const bool both_nan = std::isnan(batched) && std::isnan(scalar);
        if (mix == Mix::All && both_nan) continue;
        ASSERT_EQ(bits(batched), bits(scalar))
            << "mix=" << static_cast<int>(mix) << " n=" << n
            << " slope=" << slope << " intercept=" << intercept << ": "
            << batched << " vs " << scalar;
      }
    }
  }
}

TEST(BatchTest, SaxSymbolsMatchScalar) {
  std::mt19937_64 rng(14);
  for (const Mix mix : {Mix::Finite, Mix::Edges, Mix::OneNan, Mix::All}) {
    for (std::size_t n = 0; n <= kMaxSize; ++n) {
      // Ascending breakpoints with duplicates; some values sit exactly on
      // a breakpoint.
      std::uniform_int_distribution<std::size_t> count(0, 12);
      std::vector<double> breakpoints(count(rng));
      std::uniform_int_distribution<int> step(0, 2);
      double edge = -150.0;
      for (double& bp : breakpoints) {
        edge += 25.0 * step(rng);  // a 0 step repeats the previous edge
        bp = edge;
      }
      std::vector<double> values = make_values(rng, n, mix);
      for (std::size_t i = 0; i < n && !breakpoints.empty(); i += 7) {
        values[i] = breakpoints[i % breakpoints.size()];
      }
      std::string batched = "prefix";
      std::string scalar = "prefix";
      sax_symbols(values, breakpoints, batched);
      scalar_sax_symbols(values, breakpoints, scalar);
      ASSERT_EQ(batched, scalar)
          << "mix=" << static_cast<int>(mix) << " n=" << n
          << " breakpoints=" << breakpoints.size();
    }
  }
}

TEST(BatchTest, SaxSymbolsPutNanInTheFirstRegion) {
  const std::vector<double> breakpoints = {-1.0, 0.0, 0.0, 1.0};
  const std::vector<double> values = {
      std::numeric_limits<double>::quiet_NaN(), -2.0, 0.0,
      std::numeric_limits<double>::infinity(), -0.0};
  std::string out;
  sax_symbols(values, breakpoints, out);
  // −0.0 equals the duplicated 0.0 breakpoint, so it lands above both.
  EXPECT_EQ(out, "aaded");
}

}  // namespace
}  // namespace ivt::support::batch
