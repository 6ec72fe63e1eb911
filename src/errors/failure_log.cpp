#include "errors/failure_log.hpp"

#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"
#include "support/json_escape.hpp"

namespace ivt::errors {

using support::json_escape;

namespace {

void count_failure_metrics(const FailureRecord& record) {
  obs::Registry& registry = obs::Registry::instance();
  registry.counter("errors.total").add(1);
  registry
      .counter(std::string("errors.category.") +
               std::string(to_string(record.category)))
      .add(1);
  if (!record.site.empty()) {
    registry.counter(std::string("errors.site.") + record.site).add(1);
  }
}

}  // namespace

void FailureLog::add(FailureRecord record) {
  count_failure_metrics(record);
  const support::MutexLock lock(mutex_);
  records_.push_back(std::move(record));
}

void FailureLog::add(const std::string& site, const std::string& unit,
                     const Error& e, std::size_t retries) {
  FailureRecord record;
  record.site = site;
  record.unit = unit;
  record.category = e.category();
  record.message = e.describe();
  record.retries = retries;
  add(std::move(record));
}

std::vector<FailureRecord> FailureLog::records() const {
  const support::MutexLock lock(mutex_);
  return records_;
}

std::size_t FailureLog::size() const {
  const support::MutexLock lock(mutex_);
  return records_.size();
}

void FailureLog::merge(const FailureLog& other) {
  std::vector<FailureRecord> theirs = other.records();
  const support::MutexLock lock(mutex_);
  for (FailureRecord& r : theirs) records_.push_back(std::move(r));
}

std::string failures_to_json(const std::vector<FailureRecord>& records,
                             const std::string& indent) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const FailureRecord& r = records[i];
    os << (i > 0 ? "," : "") << "\n" << indent << "  "
       << "{\"site\": \"" << json_escape(r.site) << "\", \"unit\": \""
       << json_escape(r.unit) << "\", \"category\": \""
       << to_string(r.category) << "\", \"retries\": " << r.retries
       << ", \"message\": \"" << json_escape(r.message) << "\"}";
  }
  if (!records.empty()) os << "\n" << indent;
  os << "]";
  return os.str();
}

void write_quarantine_manifest(const std::string& path,
                               const std::string& source,
                               const std::vector<FailureRecord>& records) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    IVT_THROW(Category::Io, "cannot open for write: " + path);
  }
  out << "{\n  \"source\": \"" << json_escape(source) << "\",\n"
      << "  \"quarantined\": " << records.size() << ",\n"
      << "  \"failures\": " << failures_to_json(records, "  ") << "\n}\n";
  if (!out) {
    IVT_THROW(Category::Io, "write failed: " + path);
  }
}

}  // namespace ivt::errors
