#include "dataflow/schema.hpp"

#include "errors/error.hpp"

#include <stdexcept>
#include <unordered_set>

namespace ivt::dataflow {

Schema::Schema(std::vector<Field> fields) : fields_(std::move(fields)) {
  std::unordered_set<std::string_view> seen;
  for (const Field& f : fields_) {
    if (!seen.insert(f.name).second) {
      IVT_THROW(errors::Category::Spec, "duplicate field name in schema: " + f.name);
    }
  }
}

std::optional<std::size_t> Schema::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return i;
  }
  return std::nullopt;
}

std::size_t Schema::require(std::string_view name) const {
  if (auto idx = index_of(name)) return *idx;
  IVT_THROW(errors::Category::Spec, "schema has no field named '" + std::string(name) +
                          "' (schema: " + to_display_string() + ")");
}

Schema Schema::select(const std::vector<std::string>& names) const {
  std::vector<Field> fields;
  fields.reserve(names.size());
  for (const std::string& name : names) {
    fields.push_back(fields_[require(name)]);
  }
  return Schema(std::move(fields));
}

std::string Schema::to_display_string() const {
  std::string out = "(";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields_[i].name;
    out += ": ";
    out += std::string(to_string(fields_[i].type));
  }
  out += ")";
  return out;
}

}  // namespace ivt::dataflow
