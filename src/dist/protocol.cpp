#include "dist/protocol.hpp"

#include <sstream>
#include <stdexcept>

namespace ivt::dist {

namespace json = serve::json;

std::string job_spec_to_json(const JobSpec& job) {
  return json::Object{}
      .add("trace_path", job.trace_path)
      .add("catalog_path", job.catalog_path)
      .raw("signals", json::render_array(job.signals))
      .add("on_error", std::string(errors::to_string(job.on_error)))
      .add("scan_mode", std::string(colstore::to_string(job.scan_mode)))
      .add("keep_ks", job.keep_ks)
      .add("num_morsels", job.num_morsels)
      .str();
}

JobSpec job_spec_from_json(const json::Value& v) {
  if (!v.is_object()) {
    IVT_THROW(errors::Category::Decode, "dist: job spec is not an object");
  }
  JobSpec job;
  job.trace_path = v.get_string("trace_path", "");
  job.catalog_path = v.get_string("catalog_path", "");
  job.signals = v.get_string_list("signals");
  const std::string policy = v.get_string("on_error", "fail");
  const auto parsed = errors::parse_error_policy(policy);
  if (!parsed) {
    IVT_THROW(errors::Category::Decode,
              "dist: bad on_error policy in job spec: " + policy);
  }
  job.on_error = *parsed;
  const std::string scan = v.get_string("scan_mode", "decoded");
  try {
    job.scan_mode = colstore::parse_scan_mode(scan);
  } catch (const std::invalid_argument&) {
    IVT_THROW(errors::Category::Decode,
              "dist: bad scan_mode in job spec: " + scan);
  }
  job.keep_ks = v.get_bool("keep_ks", false);
  job.num_morsels = static_cast<std::uint64_t>(v.get_int("num_morsels", 0));
  if (job.trace_path.empty() || job.catalog_path.empty()) {
    IVT_THROW(errors::Category::Decode,
              "dist: job spec missing trace_path/catalog_path");
  }
  return job;
}

std::string failures_to_wire(
    const std::vector<errors::FailureRecord>& records) {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const errors::FailureRecord& r : records) {
    if (!first) os << ", ";
    first = false;
    os << json::Object{}
              .add("site", r.site)
              .add("unit", r.unit)
              .add("category", std::string(errors::to_string(r.category)))
              .add("message", r.message)
              .add("retries", static_cast<std::uint64_t>(r.retries))
              .str();
  }
  os << "]";
  return os.str();
}

std::vector<errors::FailureRecord> failures_from_wire(
    const json::Value& v, const std::string& key) {
  std::vector<errors::FailureRecord> out;
  const json::Value* arr = v.find(key);
  if (arr == nullptr || arr->is_null()) return out;
  if (!arr->is_array()) {
    IVT_THROW(errors::Category::Decode,
              "dist: \"" + key + "\" is not an array");
  }
  for (const json::Value& item : arr->array()) {
    if (!item.is_object()) {
      IVT_THROW(errors::Category::Decode,
                "dist: failure record is not an object");
    }
    errors::FailureRecord r;
    r.site = item.get_string("site", "");
    r.unit = item.get_string("unit", "");
    r.message = item.get_string("message", "");
    r.retries = static_cast<std::size_t>(item.get_int("retries", 0));
    const std::string cat = item.get_string("category", "internal");
    const auto parsed = errors::parse_category(cat);
    if (!parsed) {
      IVT_THROW(errors::Category::Decode,
                "dist: unknown failure category: " + cat);
    }
    r.category = *parsed;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace ivt::dist
