#include "obs/span.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace_context.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace ivt::obs {

namespace {

/// One thread's bounded span storage. Owned jointly by the thread (via a
/// thread_local shared_ptr) and the global collector, so events survive
/// thread exit — a ThreadPool can be torn down before the trace is
/// exported.
struct ThreadRing {
  std::uint32_t tid = 0;  ///< const after registration (owner-thread write)
  ///< Uncontended except during collect/reset.
  support::Mutex mutex{support::LockRank::k_obs_ThreadRing_mutex};
  /// Grows to kSpanRingCapacity, then wraps.
  std::vector<SpanEvent> events IVT_GUARDED_BY(mutex);
  /// Next overwrite position once full.
  std::size_t head IVT_GUARDED_BY(mutex) = 0;
  std::uint64_t dropped IVT_GUARDED_BY(mutex) = 0;

  void push(const SpanEvent& e) IVT_EXCLUDES(mutex) {
    const support::MutexLock lock(mutex);
    if (events.size() < kSpanRingCapacity) {
      events.push_back(e);
    } else {
      events[head] = e;
      head = (head + 1) % kSpanRingCapacity;
      ++dropped;
      // Surface ring overflow in the metrics snapshot too, so bench runs
      // and the stats op can assert no spans were lost.
      static Counter& drops =
          Registry::instance().counter("obs.spans_dropped");
      drops.add(1);
    }
  }
};

struct Collector {
  support::Mutex mutex{support::LockRank::k_obs_Collector_mutex};
  std::vector<std::shared_ptr<ThreadRing>> rings IVT_GUARDED_BY(mutex);
  std::uint32_t next_tid IVT_GUARDED_BY(mutex) = 0;
};

Collector& collector() {
  static Collector* c = new Collector();  // leaked: outlives all threads
  return *c;
}

ThreadRing& this_thread_ring() {
  thread_local const std::shared_ptr<ThreadRing> ring = [] {
    auto r = std::make_shared<ThreadRing>();
    Collector& c = collector();
    const support::MutexLock lock(c.mutex);
    r->tid = c.next_tid++;
    c.rings.push_back(r);
    return r;
  }();
  return *ring;
}

thread_local std::uint32_t t_depth = 0;
thread_local std::int32_t t_node = -1;

std::chrono::steady_clock::time_point trace_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

void set_current_node(std::int32_t node) noexcept { t_node = node; }

std::int32_t current_node() noexcept { return t_node; }

std::int64_t trace_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - trace_epoch())
      .count();
}

SpanScope::SpanScope(std::string_view name, SpanTotal* total) noexcept
    : total_(total) {
  const std::size_t n = std::min(name.size(), kSpanNameCapacity);
  std::memcpy(name_, name.data(), n);
  name_[n] = '\0';
  trace_id_ = current_trace_context().trace_id;
  node_ = t_node;
  ++t_depth;
  start_ns_ = trace_now_ns();
}

SpanScope::~SpanScope() {
  SpanEvent e;
  e.start_ns = start_ns_;
  e.dur_ns = trace_now_ns() - start_ns_;
  if (total_ != nullptr) {
    total_->fetch_add(static_cast<std::uint64_t>(e.dur_ns),
                      std::memory_order_relaxed);
  }
  e.depth = --t_depth;
  e.rows = rows_;
  e.bytes = bytes_;
  e.trace_id = trace_id_;
  e.node = node_;
  std::memcpy(e.name, name_, sizeof(name_));
  ThreadRing& ring = this_thread_ring();
  e.tid = ring.tid;
  ring.push(e);
}

std::vector<SpanEvent> collect_spans() {
  std::vector<SpanEvent> out;
  Collector& c = collector();
  const support::MutexLock lock(c.mutex);
  for (const std::shared_ptr<ThreadRing>& ring : c.rings) {
    const support::MutexLock ring_lock(ring->mutex);
    // Oldest-first: the segment after `head` predates the one before it.
    for (std::size_t i = ring->head; i < ring->events.size(); ++i) {
      out.push_back(ring->events[i]);
    }
    for (std::size_t i = 0; i < ring->head; ++i) {
      out.push_back(ring->events[i]);
    }
  }
  return out;
}

std::uint64_t dropped_span_count() {
  std::uint64_t dropped = 0;
  Collector& c = collector();
  const support::MutexLock lock(c.mutex);
  for (const std::shared_ptr<ThreadRing>& ring : c.rings) {
    const support::MutexLock ring_lock(ring->mutex);
    dropped += ring->dropped;
  }
  return dropped;
}

void reset_spans() {
  Collector& c = collector();
  const support::MutexLock lock(c.mutex);
  for (const std::shared_ptr<ThreadRing>& ring : c.rings) {
    const support::MutexLock ring_lock(ring->mutex);
    ring->events.clear();
    ring->head = 0;
    ring->dropped = 0;
  }
}

std::string chrome_trace_json() {
  std::vector<SpanEvent> spans = collect_spans();
  std::sort(spans.begin(), spans.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.tid < b.tid;
            });
  std::ostringstream os;
  os << "{\"traceEvents\": [\n";
  bool first = true;
  for (const SpanEvent& e : spans) {
    if (!first) os << ",\n";
    first = false;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"cat\": \"ivt\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": %u, "
                  "\"args\": {\"depth\": %u",
                  e.name, static_cast<double>(e.start_ns) / 1e3,
                  static_cast<double>(e.dur_ns) / 1e3, e.tid, e.depth);
    os << buf;
    if (e.rows != kSpanAttrUnset) os << ", \"rows\": " << e.rows;
    if (e.bytes != kSpanAttrUnset) os << ", \"bytes\": " << e.bytes;
    if (e.node >= 0) os << ", \"node\": " << e.node;
    if (e.trace_id != 0) {
      os << ", \"trace_id\": \"" << trace_id_hex(e.trace_id) << "\"";
    }
    os << "}}";
  }
  if (!first) os << "\n";
  os << "],\n\"displayTimeUnit\": \"ms\"}\n";
  return os.str();
}

void write_chrome_trace(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  out << chrome_trace_json();
}

}  // namespace ivt::obs
