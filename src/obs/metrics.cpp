#include "obs/metrics.hpp"

#include "support/json_escape.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace ivt::obs {

std::size_t shard_index() noexcept {
  // Sequentially assigned per thread so the first kMetricShards threads
  // (main + typical pool sizes) each own a private slot.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return slot;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  shards_ = std::vector<Shard>(kMetricShards);
  for (Shard& s : shards_) {
    s.counts = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
  }
}

void Histogram::record(double value) noexcept {
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  Shard& shard = shards_[shard_index()];
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
}

Histogram::Data Histogram::data() const {
  Data out;
  out.bounds = bounds_;
  out.counts.assign(bounds_.size() + 1, 0);
  for (const Shard& shard : shards_) {
    for (std::size_t b = 0; b < out.counts.size(); ++b) {
      out.counts[b] += shard.counts[b].load(std::memory_order_relaxed);
    }
    out.sum += shard.sum.load(std::memory_order_relaxed);
    out.count += shard.count.load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() noexcept {
  for (Shard& shard : shards_) {
    for (auto& c : shard.counts) c.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
    shard.count.store(0, std::memory_order_relaxed);
  }
}

double Histogram::Data::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation (1-based), then walk the cumulative
  // bucket counts until it is covered.
  const double rank = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const std::uint64_t in_bucket = counts[b];
    if (in_bucket == 0) continue;
    const double below = static_cast<double>(cumulative);
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) < rank) continue;
    if (b >= bounds.size()) {
      // Overflow bucket: unbounded above; report the last finite edge.
      return bounds.empty() ? 0.0 : bounds.back();
    }
    const double hi = bounds[b];
    const double lo = b == 0 ? 0.0 : bounds[b - 1];
    const double fraction =
        (rank - below) / static_cast<double>(in_bucket);
    return lo + (hi - lo) * (fraction < 0.0 ? 0.0 : fraction);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

std::vector<double> default_latency_bounds_ms() {
  return {0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000, 5000, 10000};
}

const MetricsSnapshot::Entry* MetricsSnapshot::find(
    std::string_view name) const {
  for (const Entry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter_or(std::string_view name,
                                          std::uint64_t fallback) const {
  const Entry* e = find(name);
  return e != nullptr && e->kind == Kind::Counter ? e->counter : fallback;
}

Registry& Registry::instance() {
  static Registry* registry = new Registry();  // leaked: outlive all threads
  return *registry;
}

namespace {

template <typename T, typename Make>
T& find_or_create(std::vector<std::pair<std::string, std::unique_ptr<T>>>& v,
                  std::string_view name, const Make& make) {
  for (auto& [n, metric] : v) {
    if (n == name) return *metric;
  }
  v.emplace_back(std::string(name), make());
  return *v.back().second;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  const support::MutexLock lock(mutex_);
  return find_or_create(counters_, name,
                        [] { return std::make_unique<Counter>(); });
}

Gauge& Registry::gauge(std::string_view name) {
  const support::MutexLock lock(mutex_);
  return find_or_create(gauges_, name,
                        [] { return std::make_unique<Gauge>(); });
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  const support::MutexLock lock(mutex_);
  return find_or_create(histograms_, name, [&bounds] {
    return std::make_unique<Histogram>(std::move(bounds));
  });
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot out;
  const support::MutexLock lock(mutex_);
  for (const auto& [name, c] : counters_) {
    MetricsSnapshot::Entry e;
    e.name = name;
    e.kind = MetricsSnapshot::Kind::Counter;
    e.counter = c->value();
    out.entries.push_back(std::move(e));
  }
  for (const auto& [name, g] : gauges_) {
    MetricsSnapshot::Entry e;
    e.name = name;
    e.kind = MetricsSnapshot::Kind::Gauge;
    e.gauge = g->value();
    out.entries.push_back(std::move(e));
  }
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::Entry e;
    e.name = name;
    e.kind = MetricsSnapshot::Kind::Histogram;
    e.hist = h->data();
    out.entries.push_back(std::move(e));
  }
  std::sort(out.entries.begin(), out.entries.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return out;
}

void Registry::reset() {
  const support::MutexLock lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

namespace {

using support::json_escape;

std::string render_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string to_json(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  os << "{\n  \"metrics\": {\n";
  for (std::size_t i = 0; i < snapshot.entries.size(); ++i) {
    const MetricsSnapshot::Entry& e = snapshot.entries[i];
    os << "    \"" << json_escape(e.name) << "\": ";
    switch (e.kind) {
      case MetricsSnapshot::Kind::Counter:
        os << e.counter;
        break;
      case MetricsSnapshot::Kind::Gauge:
        os << e.gauge;
        break;
      case MetricsSnapshot::Kind::WindowCounter:
        os << "{\"value\": " << e.counter
           << ", \"window_seconds\": " << e.window_seconds << "}";
        break;
      case MetricsSnapshot::Kind::Histogram:
      case MetricsSnapshot::Kind::WindowHistogram: {
        os << "{\"count\": " << e.hist.count
           << ", \"sum\": " << render_double(e.hist.sum)
           << ", \"p50\": " << render_double(e.hist.quantile(0.50))
           << ", \"p90\": " << render_double(e.hist.quantile(0.90))
           << ", \"p99\": " << render_double(e.hist.quantile(0.99));
        if (e.kind == MetricsSnapshot::Kind::WindowHistogram) {
          os << ", \"window_seconds\": " << e.window_seconds;
        }
        os << ", \"bounds\": [";
        for (std::size_t b = 0; b < e.hist.bounds.size(); ++b) {
          os << (b > 0 ? ", " : "") << render_double(e.hist.bounds[b]);
        }
        os << "], \"counts\": [";
        for (std::size_t b = 0; b < e.hist.counts.size(); ++b) {
          os << (b > 0 ? ", " : "") << e.hist.counts[b];
        }
        os << "]}";
        break;
      }
    }
    os << (i + 1 < snapshot.entries.size() ? "," : "") << "\n";
  }
  os << "  }\n}\n";
  return os.str();
}

std::string to_text(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  for (const MetricsSnapshot::Entry& e : snapshot.entries) {
    char line[160];
    switch (e.kind) {
      case MetricsSnapshot::Kind::Counter:
        std::snprintf(line, sizeof(line), "%-44s %20llu\n", e.name.c_str(),
                      static_cast<unsigned long long>(e.counter));
        break;
      case MetricsSnapshot::Kind::Gauge:
        std::snprintf(line, sizeof(line), "%-44s %20lld\n", e.name.c_str(),
                      static_cast<long long>(e.gauge));
        break;
      case MetricsSnapshot::Kind::WindowCounter:
        std::snprintf(line, sizeof(line), "%-44s %20llu (last %zus)\n",
                      e.name.c_str(),
                      static_cast<unsigned long long>(e.counter),
                      e.window_seconds);
        break;
      case MetricsSnapshot::Kind::WindowHistogram:
        std::snprintf(line, sizeof(line),
                      "%-44s count=%llu p50=%.6g p90=%.6g p99=%.6g "
                      "(last %zus)\n",
                      e.name.c_str(),
                      static_cast<unsigned long long>(e.hist.count),
                      e.hist.quantile(0.50), e.hist.quantile(0.90),
                      e.hist.quantile(0.99), e.window_seconds);
        break;
      case MetricsSnapshot::Kind::Histogram:
        std::snprintf(line, sizeof(line),
                      "%-44s count=%llu sum=%.6g mean=%.6g p50=%.6g "
                      "p90=%.6g p99=%.6g\n",
                      e.name.c_str(),
                      static_cast<unsigned long long>(e.hist.count),
                      e.hist.sum,
                      e.hist.count > 0
                          ? e.hist.sum / static_cast<double>(e.hist.count)
                          : 0.0,
                      e.hist.quantile(0.50), e.hist.quantile(0.90),
                      e.hist.quantile(0.99));
        break;
    }
    os << line;
  }
  return os.str();
}

namespace {

/// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted
/// lowercase identifiers map cleanly by replacing dots with underscores.
std::string prometheus_name(const std::string& name) {
  std::string out = "ivt_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string prometheus_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  for (const MetricsSnapshot::Entry& e : snapshot.entries) {
    const std::string name = prometheus_name(e.name);
    switch (e.kind) {
      case MetricsSnapshot::Kind::Counter:
        os << "# TYPE " << name << " counter\n";
        os << name << " " << e.counter << "\n";
        break;
      case MetricsSnapshot::Kind::Gauge:
        os << "# TYPE " << name << " gauge\n";
        os << name << " " << e.gauge << "\n";
        break;
      case MetricsSnapshot::Kind::WindowCounter:
        // A trailing-window count decays, so it is a gauge, not a counter.
        os << "# TYPE " << name << " gauge\n";
        os << name << "{window=\"" << e.window_seconds << "s\"} "
           << e.counter << "\n";
        break;
      case MetricsSnapshot::Kind::Histogram: {
        os << "# TYPE " << name << " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < e.hist.bounds.size(); ++b) {
          cumulative += e.hist.counts[b];
          os << name << "_bucket{le=\"" << prometheus_double(e.hist.bounds[b])
             << "\"} " << cumulative << "\n";
        }
        os << name << "_bucket{le=\"+Inf\"} " << e.hist.count << "\n";
        os << name << "_sum " << prometheus_double(e.hist.sum) << "\n";
        os << name << "_count " << e.hist.count << "\n";
        break;
      }
      case MetricsSnapshot::Kind::WindowHistogram: {
        // Quantiles over a trailing window are what a summary models.
        os << "# TYPE " << name << " summary\n";
        // Label values are matched textually by scrapers: keep the
        // conventional short forms, not %.17g round-trip spellings.
        for (const char* q : {"0.5", "0.9", "0.99"}) {
          os << name << "{quantile=\"" << q << "\",window=\""
             << e.window_seconds << "s\"} "
             << prometheus_double(e.hist.quantile(std::stod(q))) << "\n";
        }
        os << name << "_sum " << prometheus_double(e.hist.sum) << "\n";
        os << name << "_count " << e.hist.count << "\n";
        break;
      }
    }
  }
  return os.str();
}

void write_metrics_json(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  out << to_json(Registry::instance().snapshot());
}

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  // macOS reports bytes; Linux and the BSDs report KiB.
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

std::uint64_t current_rss_bytes() {
#if defined(__linux__)
  std::ifstream statm("/proc/self/statm");
  if (!statm) return 0;
  std::uint64_t pages_total = 0;
  std::uint64_t pages_resident = 0;
  statm >> pages_total >> pages_resident;
  if (!statm) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  return pages_resident * static_cast<std::uint64_t>(page > 0 ? page : 4096);
#else
  return 0;
#endif
}

}  // namespace ivt::obs
