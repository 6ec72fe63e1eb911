// The branch kernels against their literal definitions, bit for bit.
//
// detect_outliers (Hampel), bottom_up_segment and swab_segment must return
// exactly what tests/common/branch_kernels_reference.hpp returns: the same
// mask, and segments equal in every field under std::bit_cast. Inputs are
// seeded and cover the places where a shortcut could differ from the
// literal kernel: sizes 0–400 and half-windows 0 to n+2; quantized series
// full of ties; -0.0 beside +0.0 and values of 1e300; series whose
// variance sits at the 1e-12 error floor branch α uses; timestamps far
// from 0; SWAB buffers of 4–200 points; and max_error set to a range's
// computed cost and to its nextafter neighbours, where rounding decides.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "algo/outliers.hpp"
#include "algo/stats.hpp"
#include "algo/swab.hpp"
#include "../common/branch_kernels_reference.hpp"

namespace ivt::algo {
namespace {

enum class Shape {
  Noise,      // gaussian noise
  Quantized,  // a slow wave rounded to a coarse grid: long runs of ties
  Spiky,      // sine plus sparse large spikes
  Signed0,    // -0.0, +0.0 and a few ±1e300
  Linear,     // exactly a line in (t, y), so every fit error is rounding
  Tiny,       // near-constant: variance around 1e-13
  NonFinite,  // quantized with NaN and ±inf sprinkled in (outliers only)
};

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::Noise:
      return "Noise";
    case Shape::Quantized:
      return "Quantized";
    case Shape::Spiky:
      return "Spiky";
    case Shape::Signed0:
      return "Signed0";
    case Shape::Linear:
      return "Linear";
    case Shape::Tiny:
      return "Tiny";
    case Shape::NonFinite:
      return "NonFinite";
  }
  return "?";
}

std::vector<double> make_series(Shape shape, std::span<const double> ts,
                                std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> ys;
  ys.reserve(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const double x = static_cast<double>(i);
    double y = 0.0;
    switch (shape) {
      case Shape::Noise:
        y = 10.0 + gauss(rng);
        break;
      case Shape::Quantized:
      case Shape::NonFinite:
        y = std::round(4.0 * std::sin(x * 0.07) + 0.6 * gauss(rng)) * 0.5;
        break;
      case Shape::Spiky:
        y = std::sin(x * 0.05) + 0.05 * gauss(rng);
        if (unit(rng) < 0.03) y += (unit(rng) < 0.5 ? -1.0 : 1.0) * 40.0;
        break;
      case Shape::Signed0: {
        const double u = unit(rng);
        if (u < 0.3) {
          y = -0.0;
        } else if (u < 0.6) {
          y = 0.0;
        } else if (u < 0.7) {
          y = u < 0.65 ? 1e300 : -1e300;
        } else {
          y = gauss(rng);
        }
        break;
      }
      case Shape::Linear:
        y = 0.3 + 0.7 * (ts[i] - ts.front());
        break;
      case Shape::Tiny:
        y = 5.0 + 3e-7 * gauss(rng);
        break;
    }
    if (shape == Shape::NonFinite && unit(rng) < 0.08) {
      const double u = unit(rng);
      y = u < 0.4 ? std::numeric_limits<double>::quiet_NaN()
          : u < 0.7 ? std::numeric_limits<double>::infinity()
                    : -std::numeric_limits<double>::infinity();
    }
    ys.push_back(y);
  }
  return ys;
}

enum class Clock { Unit, Seconds, FarFromZero, Jittered };

std::vector<double> make_ts(Clock clock, std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> jitter(0.5, 1.5);
  std::vector<double> ts(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    switch (clock) {
      case Clock::Unit:
        ts[i] = x;
        break;
      case Clock::Seconds:  // branch α: seconds since the run's first point
        ts[i] = x * 0.01;
        break;
      case Clock::FarFromZero:  // epoch-like seconds
        ts[i] = 1.7e9 + x * 0.01;
        break;
      case Clock::Jittered:
        t += 0.01 * jitter(rng);
        ts[i] = 300.0 + t;
        break;
    }
  }
  return ts;
}

// ---- Hampel ---------------------------------------------------------------

TEST(BranchKernelsProperty, HampelMatchesLiteralFilter) {
  const Shape shapes[] = {Shape::Noise, Shape::Quantized, Shape::Spiky,
                          Shape::Signed0, Shape::NonFinite};
  std::size_t cases = 0;
  // Every size below 64, then every third size up to 400.
  for (std::size_t n = 0; n <= 400; n += n < 64 ? 1 : 3) {
    std::vector<std::size_t> windows = {0, 1, 2, 5};
    // The wide windows cost O(n²) in the oracle: take them for every size
    // up to 40, then for the sizes divisible by 16.
    if (n <= 40 || n % 16 == 0) {
      for (std::size_t w : {n / 2, n, n + 1, n + 2}) windows.push_back(w);
    }
    const auto ts = make_ts(Clock::Unit, n, n);
    for (const Shape shape : shapes) {
      const auto xs = make_series(shape, ts, 1000 + n);
      for (const std::size_t w : windows) {
        for (const double threshold : {3.0, 0.5}) {
          OutlierConfig config;
          config.method = OutlierMethod::Hampel;
          config.threshold = threshold;
          config.window = w;
          ASSERT_EQ(detect_outliers(xs, config),
                    testref::hampel_outliers(xs, threshold, w))
              << shape_name(shape) << " n=" << n << " window=" << w
              << " threshold=" << threshold;
          ++cases;
        }
      }
    }
  }
  EXPECT_GT(cases, 7000u);
}

TEST(BranchKernelsProperty, SortedOrderStatisticsMatchLiteral) {
  std::mt19937_64 rng(5);
  for (std::size_t n = 1; n <= 64; ++n) {
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<double> xs(n);
      for (double& x : xs) {
        // Few distinct values, both zeros: ties everywhere.
        const auto k = static_cast<int>(rng() % 7);
        x = k == 0 ? -0.0 : static_cast<double>(k - 3) * 0.25;
      }
      std::vector<double> sorted = xs;
      std::sort(sorted.begin(), sorted.end());
      const double med = sorted_median(sorted);
      EXPECT_EQ(med, testref::median(xs)) << "n=" << n;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    sorted_median_absolute_deviation(sorted, med)),
                std::bit_cast<std::uint64_t>(
                    testref::median_absolute_deviation(xs)))
          << "n=" << n;
    }
  }
}

// ---- segmentation ---------------------------------------------------------

::testing::AssertionResult same_bits(std::span<const Segment> got,
                                     std::span<const testref::Segment> want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " segments, literal has " << want.size();
  }
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Segment& g = got[i];
    const testref::Segment& w = want[i];
    if (g.start != w.start || g.end != w.end ||
        bits(g.fit.slope) != bits(w.slope) ||
        bits(g.fit.intercept) != bits(w.intercept) ||
        bits(g.error) != bits(w.error)) {
      return ::testing::AssertionFailure()
             << "segment " << i << ": [" << g.start << "," << g.end
             << ") error " << g.error << ", literal [" << w.start << ","
             << w.end << ") error " << w.error;
    }
  }
  return ::testing::AssertionSuccess();
}

// max_error values where rounding decides: the computed cost of each
// prefix [0, range) and its nextafter neighbours, plus the scale branch α
// uses (5 × the variance, floored at 1e-12), a finer one, and the floor.
std::vector<double> error_budgets(std::span<const double> ts,
                                  std::span<const double> xs,
                                  std::initializer_list<std::size_t> ranges) {
  std::vector<double> budgets;
  const double var = variance(xs);
  budgets.push_back(std::max(5.0 * var, 1e-12));
  budgets.push_back(std::max(0.05 * var, 1e-12));
  budgets.push_back(1e-12);
  for (const std::size_t range : ranges) {
    if (range < 2 || range > xs.size()) continue;
    const double cost = fit_segment(ts, xs, 0, range).error;
    if (!std::isfinite(cost)) continue;
    budgets.push_back(cost);
    budgets.push_back(std::nextafter(cost, 0.0));
    budgets.push_back(
        std::nextafter(cost, std::numeric_limits<double>::infinity()));
  }
  return budgets;
}

std::string where(Shape shape, Clock clock, std::size_t n, double budget) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s clock=%d n=%zu max_error=%.17g",
                shape_name(shape), static_cast<int>(clock), n, budget);
  return buf;
}

const Shape kSegShapes[] = {Shape::Noise, Shape::Quantized, Shape::Spiky,
                            Shape::Linear, Shape::Tiny, Shape::Signed0};
const Clock kClocks[] = {Clock::Unit, Clock::Seconds, Clock::FarFromZero,
                         Clock::Jittered};

TEST(BranchKernelsProperty, BottomUpMatchesLiteral) {
  std::size_t cases = 0;
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 24; ++n) sizes.push_back(n);
  for (std::size_t n : {31, 47, 64, 97, 120, 121, 160, 200, 257, 400}) {
    sizes.push_back(n);
  }
  for (const std::size_t n : sizes) {
    for (const Clock clock : kClocks) {
      const auto ts = make_ts(clock, n, 7 * n + 1);
      for (const Shape shape : kSegShapes) {
        const auto xs = make_series(shape, ts, 31 * n + 3);
        for (const double budget : error_budgets(ts, xs, {n})) {
          ASSERT_TRUE(same_bits(bottom_up_segment(ts, xs, budget),
                                testref::bottom_up(ts, xs, budget)))
              << where(shape, clock, n, budget);
          ++cases;
        }
      }
    }
  }
  EXPECT_GT(cases, 3000u);
}

TEST(BranchKernelsProperty, SwabMatchesLiteral) {
  std::size_t cases = 0;
  for (const std::size_t buffer : {4, 5, 7, 9, 16, 33, 64, 120, 121, 200}) {
    for (const std::size_t n : {buffer + 1, 3 * buffer + 5, 400ul}) {
      for (const Clock clock : kClocks) {
        const auto ts = make_ts(clock, n, 11 * n + buffer);
        for (const Shape shape : kSegShapes) {
          const auto xs = make_series(shape, ts, 13 * n + buffer);
          // Budgets at the cost of the first buffer, and at the cost of a
          // range as long as a typical refill.
          for (const double budget :
               error_budgets(ts, xs, {buffer, buffer / 2 + 2})) {
            SegmentationConfig config;
            config.max_error = budget;
            config.buffer_size = buffer;
            ASSERT_TRUE(same_bits(swab_segment(ts, xs, config),
                                  testref::swab(ts, xs, budget, buffer)))
                << where(shape, clock, n, budget) << " buffer=" << buffer;
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 3000u);
}

}  // namespace
}  // namespace ivt::algo
