#include "obs/window.hpp"

#include <algorithm>
#include <chrono>

namespace ivt::obs {

std::int64_t steady_now_s() noexcept {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

RollingCounter::RollingCounter(std::size_t window_s)
    : slots_(window_s > 0 ? window_s : 1) {}

RollingCounter::Slot& RollingCounter::claim(std::int64_t now_s) noexcept {
  Slot& slot = slots_[static_cast<std::size_t>(now_s) % slots_.size()];
  std::int64_t stamped = slot.sec.load(std::memory_order_acquire);
  if (stamped != now_s) {
    // First writer of this second resets the recycled slot; losers of the
    // CAS see the new stamp and just add.
    if (slot.sec.compare_exchange_strong(stamped, now_s,
                                         std::memory_order_acq_rel)) {
      slot.count.store(0, std::memory_order_relaxed);
    }
  }
  return slot;
}

void RollingCounter::add_at(std::int64_t now_s,
                            std::uint64_t delta) noexcept {
  claim(now_s).count.fetch_add(delta, std::memory_order_relaxed);
}

std::uint64_t RollingCounter::value_at(std::int64_t now_s) const noexcept {
  std::uint64_t total = 0;
  const auto window = static_cast<std::int64_t>(slots_.size());
  for (const Slot& slot : slots_) {
    const std::int64_t sec = slot.sec.load(std::memory_order_acquire);
    if (sec > now_s - window && sec <= now_s) {
      total += slot.count.load(std::memory_order_relaxed);
    }
  }
  return total;
}

void RollingCounter::reset() noexcept {
  for (Slot& slot : slots_) {
    slot.sec.store(-1, std::memory_order_relaxed);
    slot.count.store(0, std::memory_order_relaxed);
  }
}

RollingHistogram::RollingHistogram(std::vector<double> bounds,
                                   std::size_t window_s)
    : bounds_(std::move(bounds)),
      slots_(window_s > 0 ? window_s : 1) {
  std::sort(bounds_.begin(), bounds_.end());
  for (Slot& slot : slots_) {
    slot.counts = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
  }
}

RollingHistogram::Slot* RollingHistogram::claim(std::int64_t now_s) noexcept {
  Slot& slot = slots_[static_cast<std::size_t>(now_s) % slots_.size()];
  std::int64_t stamped = slot.sec.load(std::memory_order_acquire);
  if (stamped != now_s) {
    if (slot.sec.compare_exchange_strong(stamped, now_s,
                                         std::memory_order_acq_rel)) {
      for (auto& c : slot.counts) c.store(0, std::memory_order_relaxed);
      slot.sum.store(0.0, std::memory_order_relaxed);
      slot.count.store(0, std::memory_order_relaxed);
    }
  }
  return &slot;
}

void RollingHistogram::record_at(std::int64_t now_s, double value) noexcept {
  Slot* slot = claim(now_s);
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  slot->counts[bucket].fetch_add(1, std::memory_order_relaxed);
  slot->sum.fetch_add(value, std::memory_order_relaxed);
  slot->count.fetch_add(1, std::memory_order_relaxed);
}

Histogram::Data RollingHistogram::data_at(std::int64_t now_s) const {
  Histogram::Data out;
  out.bounds = bounds_;
  out.counts.assign(bounds_.size() + 1, 0);
  const auto window = static_cast<std::int64_t>(slots_.size());
  for (const Slot& slot : slots_) {
    const std::int64_t sec = slot.sec.load(std::memory_order_acquire);
    if (sec <= now_s - window || sec > now_s) continue;
    for (std::size_t b = 0; b < out.counts.size(); ++b) {
      out.counts[b] += slot.counts[b].load(std::memory_order_relaxed);
    }
    out.sum += slot.sum.load(std::memory_order_relaxed);
    out.count += slot.count.load(std::memory_order_relaxed);
  }
  return out;
}

void RollingHistogram::reset() noexcept {
  for (Slot& slot : slots_) {
    slot.sec.store(-1, std::memory_order_relaxed);
    for (auto& c : slot.counts) c.store(0, std::memory_order_relaxed);
    slot.sum.store(0.0, std::memory_order_relaxed);
    slot.count.store(0, std::memory_order_relaxed);
  }
}

}  // namespace ivt::obs
