// The reference work behind the host-speed correction (see README, Noise).
//
// On a shared virtual machine the same job's CPU time moves by 10-30 %
// between runs minutes apart, and all kinds of work move together: other
// guests take the memory system, caches and the hyperthread siblings. So
// every job child does this fixed work after its job, and `ivt_bench
// calib` does it after every set-up; run.py divides each time by the mean
// CPU time of it over the children around it. It calls nothing from src/,
// so no change to the program changes it. It mixes the kinds of work a job
// does: threads, first touches of fresh memory, string hashing and
// arithmetic.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "suite.hpp"

namespace ivt::bench {

namespace {

volatile std::uint64_t g_sink = 0;

/// Keeps a result alive so the compiler cannot drop the work.
void keep(std::uint64_t v) { g_sink = g_sink + v; }

/// Three threads, each filling and sorting 200 k doubles.
void sort_in_threads() {
  std::vector<std::thread> threads;
  for (std::uint64_t k = 0; k < 3; ++k) {
    threads.emplace_back([k] {
      std::vector<double> v(200000);
      std::mt19937_64 rng(k);
      for (double& e : v) e = static_cast<double>(rng() >> 11);
      std::sort(v.begin(), v.end());
      keep(static_cast<std::uint64_t>(v[7]));
    });
  }
  for (std::thread& t : threads) t.join();
}

/// First touch of 16 MB: page faults.
void touch_fresh_memory() {
  const std::vector<char> v(16u << 20, 1);
  keep(static_cast<std::uint64_t>(v[12345]));
}

/// String-keyed map inserts and lookups: allocation and cache misses.
void hash_strings() {
  std::unordered_map<std::string, double> m;
  char buf[32];
  for (int i = 0; i < 40000; ++i) {
    std::snprintf(buf, sizeof buf, "SIG_%d_%d", i % 180, i);
    m[buf] += i;
  }
  double sum = 0.0;
  for (int i = 0; i < 40000; i += 3) {
    std::snprintf(buf, sizeof buf, "SIG_%d_%d", i % 180, i);
    sum += m[buf];
  }
  keep(static_cast<std::uint64_t>(sum));
}

/// Integer and floating-point arithmetic in registers.
void arithmetic() {
  double x = 1.0;
  std::uint64_t h = 88172645463325252ULL;
  for (int i = 0; i < 8000000; ++i) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    x = x * 0.999999 + static_cast<double>(h & 1023) * 1e-6;
  }
  keep(h + static_cast<std::uint64_t>(x));
}

}  // namespace

double calibration_cpu_s() {
  const double cpu0 = process_cpu_s();
  sort_in_threads();
  touch_fresh_memory();
  hash_strings();
  arithmetic();
  return process_cpu_s() - cpu0;
}

int cmd_calib(const cli::Args& /*args*/) {
  serve::json::Object out;
  out.add("calib_s", calibration_cpu_s());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace ivt::bench
