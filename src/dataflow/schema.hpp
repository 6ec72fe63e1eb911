// Table schema: an ordered list of named, typed fields.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dataflow/value.hpp"

namespace ivt::dataflow {

/// One named, typed column slot in a schema.
struct Field {
  std::string name;
  ValueType type = ValueType::Null;

  friend bool operator==(const Field&, const Field&) = default;
};

/// Ordered field list with by-name lookup.
///
/// Field names must be unique within a schema; `Schema` enforces this at
/// construction (duplicate names would make joins/projections ambiguous).
class Schema {
 public:
  Schema() = default;
  /// Throws std::invalid_argument on duplicate field names.
  explicit Schema(std::vector<Field> fields);

  [[nodiscard]] std::size_t size() const { return fields_.size(); }
  [[nodiscard]] bool empty() const { return fields_.empty(); }
  [[nodiscard]] const Field& field(std::size_t i) const { return fields_[i]; }
  [[nodiscard]] const std::vector<Field>& fields() const { return fields_; }

  /// Index of the field named `name`, or nullopt.
  [[nodiscard]] std::optional<std::size_t> index_of(
      std::string_view name) const;

  /// Index of the field named `name`; throws std::out_of_range with the
  /// field name in the message if absent. Use when absence is a logic bug.
  [[nodiscard]] std::size_t require(std::string_view name) const;

  [[nodiscard]] bool contains(std::string_view name) const {
    return index_of(name).has_value();
  }

  /// Schema containing only the named fields, in the given order.
  /// Throws std::out_of_range on unknown names.
  [[nodiscard]] Schema select(const std::vector<std::string>& names) const;

  [[nodiscard]] std::string to_display_string() const;

  friend bool operator==(const Schema&, const Schema&) = default;

 private:
  std::vector<Field> fields_;
};

}  // namespace ivt::dataflow
