#include "algo/sax.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "algo/stats.hpp"
#include "support/batch.hpp"

namespace ivt::algo {

std::vector<double> paa(std::span<const double> xs, std::size_t n_segments) {
  std::vector<double> out;
  if (xs.empty() || n_segments == 0) return out;
  n_segments = std::min(n_segments, xs.size());
  out.assign(n_segments, 0.0);
  // Weighted frame assignment: element i contributes to frames overlapping
  // [i, i+1) in the rescaled domain [0, n_segments).
  const double scale = static_cast<double>(n_segments) /
                       static_cast<double>(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double lo = static_cast<double>(i) * scale;
    const double hi = static_cast<double>(i + 1) * scale;
    std::size_t f0 = static_cast<std::size_t>(lo);
    const std::size_t f1 =
        std::min(n_segments - 1, static_cast<std::size_t>(
                                     std::nextafter(hi, 0.0)));
    if (f0 >= n_segments) f0 = n_segments - 1;
    for (std::size_t f = f0; f <= f1; ++f) {
      const double frame_lo = static_cast<double>(f);
      const double frame_hi = static_cast<double>(f + 1);
      const double overlap =
          std::min(hi, frame_hi) - std::max(lo, frame_lo);
      if (overlap > 0.0) out[f] += xs[i] * overlap;
    }
  }
  // Every frame has width exactly 1 in the rescaled domain, so the
  // accumulated overlap-weighted sum is already the frame mean.
  return out;
}

std::vector<double> znormalize(std::span<const double> xs, double epsilon) {
  std::vector<double> out(xs.size(), 0.0);
  if (xs.empty()) return out;
  const double mu = mean(xs);
  const double sd = stddev(xs);
  if (sd < epsilon) return out;
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = (xs[i] - mu) / sd;
  return out;
}

std::vector<double> sax_breakpoints(std::size_t alphabet_size) {
  // Equiprobable N(0,1) cut points, i.e. Phi^-1(k / a) for k = 1..a-1.
  // Tabulated (as in the SAX paper) to avoid depending on an inverse-CDF
  // implementation; values match Lin et al. Table 2 and extend it to 16.
  static const std::vector<std::vector<double>> kTable = {
      /* 2*/ {0.0},
      /* 3*/ {-0.4307, 0.4307},
      /* 4*/ {-0.6745, 0.0, 0.6745},
      /* 5*/ {-0.8416, -0.2533, 0.2533, 0.8416},
      /* 6*/ {-0.9674, -0.4307, 0.0, 0.4307, 0.9674},
      /* 7*/ {-1.0676, -0.5659, -0.1800, 0.1800, 0.5659, 1.0676},
      /* 8*/ {-1.1503, -0.6745, -0.3186, 0.0, 0.3186, 0.6745, 1.1503},
      /* 9*/
      {-1.2206, -0.7647, -0.4307, -0.1397, 0.1397, 0.4307, 0.7647, 1.2206},
      /*10*/
      {-1.2816, -0.8416, -0.5244, -0.2533, 0.0, 0.2533, 0.5244, 0.8416,
       1.2816},
      /*11*/
      {-1.3352, -0.9085, -0.6046, -0.3488, -0.1142, 0.1142, 0.3488, 0.6046,
       0.9085, 1.3352},
      /*12*/
      {-1.3830, -0.9674, -0.6745, -0.4307, -0.2104, 0.0, 0.2104, 0.4307,
       0.6745, 0.9674, 1.3830},
      /*13*/
      {-1.4261, -1.0201, -0.7363, -0.5024, -0.2934, -0.0966, 0.0966, 0.2934,
       0.5024, 0.7363, 1.0201, 1.4261},
      /*14*/
      {-1.4652, -1.0676, -0.7916, -0.5660, -0.3661, -0.1800, 0.0, 0.1800,
       0.3661, 0.5660, 0.7916, 1.0676, 1.4652},
      /*15*/
      {-1.5011, -1.1108, -0.8416, -0.6229, -0.4307, -0.2533, -0.0837, 0.0837,
       0.2533, 0.4307, 0.6229, 0.8416, 1.1108, 1.5011},
      /*16*/
      {-1.5341, -1.1503, -0.8871, -0.6745, -0.4888, -0.3186, -0.1573, 0.0,
       0.1573, 0.3186, 0.4888, 0.6745, 0.8871, 1.1503, 1.5341},
  };
  if (alphabet_size < 2 || alphabet_size > 16) {
    throw std::invalid_argument(
        "sax_breakpoints: alphabet size must be in [2, 16], got " +
        std::to_string(alphabet_size));
  }
  return kTable[alphabet_size - 2];
}

char sax_symbol(double value, std::span<const double> breakpoints) {
  std::size_t region = 0;
  while (region < breakpoints.size() && value >= breakpoints[region]) {
    ++region;
  }
  return static_cast<char>('a' + region);
}

std::string sax_word(std::span<const double> xs, std::size_t word_length,
                     std::size_t alphabet_size) {
  const std::vector<double> z = znormalize(xs);
  const std::vector<double> reduced = paa(z, word_length);
  const std::vector<double> bp = sax_breakpoints(alphabet_size);
  std::string word;
  // Batched shape: branchless region counting, identical to
  // the sax_symbol walk for the ascending breakpoint table.
  support::batch::sax_symbols(reduced, bp, word);
  return word;
}

double sax_min_dist(const std::string& a, const std::string& b,
                    std::size_t alphabet_size, std::size_t n) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("sax_min_dist: word length mismatch");
  }
  if (a.empty()) return 0.0;
  const std::vector<double> bp = sax_breakpoints(alphabet_size);
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const int ra = a[i] - 'a';
    const int rb = b[i] - 'a';
    if (std::abs(ra - rb) <= 1) continue;  // adjacent regions: distance 0
    const int hi = std::max(ra, rb);
    const int lo = std::min(ra, rb);
    const double d = bp[static_cast<std::size_t>(hi - 1)] -
                     bp[static_cast<std::size_t>(lo)];
    sum += d * d;
  }
  const double w = static_cast<double>(a.size());
  return std::sqrt(static_cast<double>(n) / w) * std::sqrt(sum);
}

}  // namespace ivt::algo
