// Open-loop request generator.
//
// Request i is due at start + i / rate, whether or not earlier requests
// have completed — the load a population of independent users offers. The
// requests go out over a fixed pool of sender threads, one connection
// each, in due order: a request is sent when it is due and a sender is
// free. When every sender is still waiting for a reply, the request goes
// out late, and that wait is part of its latency: latency is measured from
// the due time, not from the send (measuring from the send would hide a
// stall — coordinated omission). How late each request was sent is
// recorded too; run.py reports whether that lateness grew over the step
// (a backlog building up) as gen.late_growth_ms.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

namespace ivt::bench {

struct RequestTiming {
  double due_s = 0.0;       ///< due time, seconds after the start
  double late_ms = 0.0;     ///< send time - due time
  double latency_ms = 0.0;  ///< completion - due time
};

/// Runs `fn(i, sender)` for i in [0, n) on `senders` threads, paced at
/// `rate` requests per second. `fn` must not throw (the caller records
/// failures as outcomes); one call per sender runs at a time, so
/// per-sender state (a connection) needs no lock.
template <class Fn>
std::vector<RequestTiming> run_open_loop(std::size_t n, double rate,
                                         std::size_t senders, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  std::vector<RequestTiming> timings(n);
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto ms_between = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  std::vector<std::thread> threads;
  threads.reserve(senders);
  for (std::size_t s = 0; s < senders; ++s) {
    threads.emplace_back([&, s] {
      for (std::size_t i = next++; i < n; i = next++) {
        const double due_s = static_cast<double>(i) / rate;
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due_s));
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        fn(i, s);
        timings[i] = {due_s, ms_between(due, sent),
                      ms_between(due, Clock::now())};
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return timings;
}

}  // namespace ivt::bench
