#include "algo/smoothing.hpp"

#include <algorithm>
#include <stdexcept>

#include "algo/stats.hpp"
#include "support/batch.hpp"

namespace ivt::algo {

std::vector<double> moving_average(std::span<const double> xs,
                                   std::size_t half_window) {
  // Batched shape: interior windows run 4 outputs per block with
  // per-lane left-to-right accumulation — bit-identical to the scalar
  // loop by the support::batch contract.
  return support::batch::moving_average(xs, half_window);
}

std::vector<double> moving_median(std::span<const double> xs,
                                  std::size_t half_window) {
  std::vector<double> out;
  out.reserve(xs.size());
  if (half_window == 0) {
    out.assign(xs.begin(), xs.end());
    return out;
  }
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::size_t lo = i >= half_window ? i - half_window : 0;
    const std::size_t hi = std::min(i + half_window + 1, xs.size());
    out.push_back(median(xs.subspan(lo, hi - lo)));
  }
  return out;
}

std::vector<double> exponential_smoothing(std::span<const double> xs,
                                          double alpha) {
  if (alpha <= 0.0 || alpha > 1.0) {
    throw std::invalid_argument("exponential_smoothing: alpha must be in "
                                "(0, 1]");
  }
  std::vector<double> out;
  out.reserve(xs.size());
  double state = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    state = i == 0 ? xs[0] : alpha * xs[i] + (1.0 - alpha) * state;
    out.push_back(state);
  }
  return out;
}

}  // namespace ivt::algo
