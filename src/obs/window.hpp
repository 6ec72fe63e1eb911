// Rolling-window metric views: the last W seconds of a counter or
// histogram, not the process lifetime.
//
// A warm daemon's lifetime histogram stops moving — after an hour of
// traffic its p99 is frozen history. The rolling variants keep W
// one-second slots (default 60) in a ring indexed by `second mod W`; a
// writer claims the slot for the current second (resetting a stale one
// via CAS on its second stamp), and a reader aggregates only slots whose
// stamp lies in (now - W, now]. Values therefore decay to zero within W
// seconds of the load stopping, which is what makes "current p99" and
// "QPS right now" observable on a long-lived server.
//
// Everything is atomics — same TSan-clean, lock-free discipline as
// obs/metrics.hpp. The slot-claim race is benign: two writers racing a
// stale slot can drop at most one second-old slot's worth of samples,
// never corrupt counts.
//
// The *_at variants take an explicit epoch-seconds value so tests can
// drive the clock instead of sleeping through real windows.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"

namespace ivt::obs {

/// Default window width for rolling views, seconds.
inline constexpr std::size_t kDefaultWindowSeconds = 60;

/// Steady-clock seconds (monotonic; the rolling rings' production clock).
[[nodiscard]] std::int64_t steady_now_s() noexcept;

/// Events in the trailing `window_s` seconds.
class RollingCounter {
 public:
  explicit RollingCounter(std::size_t window_s = kDefaultWindowSeconds);

  void add(std::uint64_t delta = 1) noexcept { add_at(steady_now_s(), delta); }
  /// Test hook: record at an explicit second.
  void add_at(std::int64_t now_s, std::uint64_t delta) noexcept;

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_at(steady_now_s());
  }
  [[nodiscard]] std::uint64_t value_at(std::int64_t now_s) const noexcept;

  [[nodiscard]] std::size_t window_seconds() const noexcept {
    return slots_.size();
  }

  void reset() noexcept;

 private:
  struct alignas(64) Slot {
    std::atomic<std::int64_t> sec{-1};
    std::atomic<std::uint64_t> count{0};
  };
  std::vector<Slot> slots_;

  Slot& claim(std::int64_t now_s) noexcept;
};

/// Fixed-bucket histogram over the trailing `window_s` seconds. Bucket
/// semantics match obs::Histogram (inclusive upper edges + overflow);
/// data() returns the same Histogram::Data, so quantile() and the JSON
/// renderers apply unchanged.
class RollingHistogram {
 public:
  RollingHistogram(std::vector<double> bounds,
                   std::size_t window_s = kDefaultWindowSeconds);

  // Ungated, like RollingCounter::add — see there.
  void record(double value) noexcept { record_at(steady_now_s(), value); }
  /// Test hook: record at an explicit second.
  void record_at(std::int64_t now_s, double value) noexcept;

  [[nodiscard]] Histogram::Data data() const {
    return data_at(steady_now_s());
  }
  [[nodiscard]] Histogram::Data data_at(std::int64_t now_s) const;

  [[nodiscard]] std::size_t window_seconds() const noexcept {
    return slots_.size();
  }

  void reset() noexcept;

 private:
  struct Slot {
    std::atomic<std::int64_t> sec{-1};
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<double> sum{0.0};
    std::atomic<std::uint64_t> count{0};
  };
  std::vector<double> bounds_;
  std::vector<Slot> slots_;

  Slot* claim(std::int64_t now_s) noexcept;
};

}  // namespace ivt::obs
