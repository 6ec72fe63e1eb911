#include "obs/eventlog.hpp"

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"
#include "support/json_escape.hpp"

namespace ivt::obs {

namespace {

using support::append_json_escaped;

std::int64_t unix_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* to_string(EventLevel level) noexcept {
  switch (level) {
    case EventLevel::Debug:
      return "debug";
    case EventLevel::Info:
      return "info";
    case EventLevel::Warn:
      return "warn";
    case EventLevel::Error:
      return "error";
  }
  return "info";
}

EventLog::EventLog(const std::string& path, EventLogOptions options)
    : capacity_(options.capacity > 0 ? options.capacity : 1),
      flush_interval_ms_(options.flush_interval_ms > 0
                             ? options.flush_interval_ms
                             : 1) {
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    throw std::runtime_error("event log: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  flusher_ = std::thread([this] { flusher_loop(); });
}

EventLog::~EventLog() { close(); }

void EventLog::write(std::string line) {
  if (file_ == nullptr) return;
  {
    const support::MutexLock lock(mutex_);
    if (stopping_) return;
    if (queue_.size() >= capacity_) {
      ++dropped_;
      OBS_COUNT("obs.events_dropped", 1);
      return;
    }
    queue_.push_back(std::move(line));
  }
  cv_.notify_one();
}

std::uint64_t EventLog::dropped() const noexcept {
  const support::MutexLock lock(mutex_);
  return dropped_;
}

void EventLog::flush() {
  if (file_ == nullptr) return;
  support::MutexLock lock(mutex_);
  cv_.notify_one();
  while (!stopping_ && (!queue_.empty() || writing_)) {
    cv_drained_.wait(lock);
  }
}

void EventLog::close() {
  if (file_ == nullptr) return;
  {
    const support::MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  // The flusher drained the queue before exiting; just close the file.
  std::fclose(file_);
  file_ = nullptr;
}

void EventLog::flusher_loop() {
  std::vector<std::string> batch;
  support::MutexLock lock(mutex_);
  for (;;) {
    while (!stopping_ && queue_.empty()) {
      cv_.wait_for(lock, std::chrono::milliseconds(flush_interval_ms_));
      if (stopping_) break;
    }
    const bool exiting = stopping_;
    batch.swap(queue_);
    writing_ = !batch.empty();
    if (writing_ || exiting) {
      lock.unlock();
      for (const std::string& line : batch) {
        std::fwrite(line.data(), 1, line.size(), file_);
        std::fputc('\n', file_);
      }
      if (!batch.empty() || exiting) std::fflush(file_);
      batch.clear();
      lock.lock();
      writing_ = false;
      cv_drained_.notify_all();
    }
    if (exiting && queue_.empty()) return;
  }
}

EventRecord::EventRecord(EventLog* log, EventLevel level,
                         std::string_view name) {
  if (log == nullptr || !log->enabled()) return;
  log_ = log;
  buf_.reserve(160);
  buf_ += "{\"ts_ns\": ";
  char num[32];
  std::snprintf(num, sizeof(num), "%" PRId64, unix_now_ns());
  buf_ += num;
  buf_ += ", \"level\": \"";
  buf_ += to_string(level);
  buf_ += "\", \"event\": \"";
  append_json_escaped(buf_, name);
  buf_ += '"';
}

EventRecord::~EventRecord() {
  if (log_ == nullptr) return;
  buf_ += '}';
  log_->write(std::move(buf_));
}

EventRecord& EventRecord::kv(std::string_view key, std::string_view value) {
  if (log_ == nullptr) return *this;
  buf_ += ", \"";
  append_json_escaped(buf_, key);
  buf_ += "\": \"";
  append_json_escaped(buf_, value);
  buf_ += '"';
  return *this;
}

EventRecord& EventRecord::kv(std::string_view key, const char* value) {
  return kv(key, std::string_view(value));
}

EventRecord& EventRecord::kv(std::string_view key, std::int64_t value) {
  if (log_ == nullptr) return *this;
  char num[32];
  std::snprintf(num, sizeof(num), "%" PRId64, value);
  buf_ += ", \"";
  append_json_escaped(buf_, key);
  buf_ += "\": ";
  buf_ += num;
  return *this;
}

EventRecord& EventRecord::kv(std::string_view key, std::uint64_t value) {
  if (log_ == nullptr) return *this;
  char num[32];
  std::snprintf(num, sizeof(num), "%" PRIu64, value);
  buf_ += ", \"";
  append_json_escaped(buf_, key);
  buf_ += "\": ";
  buf_ += num;
  return *this;
}

EventRecord& EventRecord::kv(std::string_view key, double value) {
  if (log_ == nullptr) return *this;
  char num[64];
  std::snprintf(num, sizeof(num), "%.6g", value);
  buf_ += ", \"";
  append_json_escaped(buf_, key);
  buf_ += "\": ";
  buf_ += num;
  return *this;
}

EventRecord& EventRecord::kv(std::string_view key, bool value) {
  if (log_ == nullptr) return *this;
  buf_ += ", \"";
  append_json_escaped(buf_, key);
  buf_ += "\": ";
  buf_ += value ? "true" : "false";
  return *this;
}

}  // namespace ivt::obs
