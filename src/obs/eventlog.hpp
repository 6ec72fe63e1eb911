// Structured JSON-lines event log with a bounded ring and a background
// flusher: the request path never blocks on disk.
//
// Producers render one record (a small JSON object) and enqueue it into a
// bounded in-memory ring under a short mutex hold; a dedicated flusher
// thread drains the ring to the file on a timer and on demand. When the
// ring is full the record is DROPPED and counted ("obs.events_dropped"
// plus EventLog::dropped()) — losing an access record under overload is
// acceptable, stalling a request on fwrite is not.
//
// Record shape (one per line):
//   {"ts_ns": <unix ns>, "level": "info", "event": "serve.query",
//    "op": "state", "trace_id": "00c0ffee...", ...}
//
// The builder API is the OBS_EVENT macro (obs/obs.hpp):
//   OBS_EVENT(log, Info, "serve.query").kv("op", op).kv("elapsed_ms", ms);
// The temporary renders its fields and enqueues on destruction. A null or
// closed log makes the whole statement a cheap no-op.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace ivt::obs {

enum class EventLevel { Debug, Info, Warn, Error };

[[nodiscard]] const char* to_string(EventLevel level) noexcept;

struct EventLogOptions {
  /// Ring capacity in records; a full ring drops (and counts) new records.
  std::size_t capacity = 4096;
  /// Flusher wakeup interval when idle.
  std::size_t flush_interval_ms = 50;
};

class EventLog {
 public:
  /// A default-constructed log is closed: enabled() is false and every
  /// write is a no-op.
  EventLog() = default;
  /// Open `path` for appending and start the flusher thread. Throws
  /// std::runtime_error when the file cannot be opened.
  explicit EventLog(const std::string& path, EventLogOptions options = {});
  ~EventLog();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return file_ != nullptr; }

  /// Enqueue one rendered JSON record (no trailing newline). Never blocks
  /// on I/O; drops (counted) when the ring is full or the log is closed.
  void write(std::string line);

  /// Records dropped to ring overflow since open.
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// Block until everything enqueued so far is on disk (tests, shutdown).
  void flush();

  /// Drain, stop the flusher and close the file. Idempotent.
  void close();

 private:
  void flusher_loop();

  std::FILE* file_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t flush_interval_ms_ = 50;
  std::thread flusher_;

  mutable support::Mutex mutex_{support::LockRank::k_obs_EventLog_mutex_};
  support::CondVar cv_;          ///< producers -> flusher (work available)
  support::CondVar cv_drained_;  ///< flusher -> flush() (all on disk)
  std::vector<std::string> queue_ IVT_GUARDED_BY(mutex_);
  std::uint64_t dropped_ IVT_GUARDED_BY(mutex_) = 0;
  bool writing_ IVT_GUARDED_BY(mutex_) = false;  ///< flusher mid-write
  bool stopping_ IVT_GUARDED_BY(mutex_) = false;
};

/// Builder for one event record; renders and enqueues on destruction.
/// Field values are JSON-escaped; numeric overloads render as numbers.
class EventRecord {
 public:
  /// `log` may be null/closed — the record then renders nothing.
  EventRecord(EventLog* log, EventLevel level, std::string_view name);
  ~EventRecord();

  EventRecord(const EventRecord&) = delete;
  EventRecord& operator=(const EventRecord&) = delete;

  EventRecord& kv(std::string_view key, std::string_view value);
  EventRecord& kv(std::string_view key, const char* value);
  EventRecord& kv(std::string_view key, std::int64_t value);
  EventRecord& kv(std::string_view key, std::uint64_t value);
  EventRecord& kv(std::string_view key, double value);
  EventRecord& kv(std::string_view key, bool value);

 private:
  EventLog* log_ = nullptr;
  std::string buf_;
};

}  // namespace ivt::obs
