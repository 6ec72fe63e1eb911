// Cell value for the ivt::dataflow engine.
//
// A Value is a single cell of a table: null, a 64-bit integer, a double or
// a (byte-)string. Tables store cells in typed columns (see column.hpp);
// Value is the boxed form used at API boundaries (row views, predicates,
// builders) where genericity matters more than locality.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

namespace ivt::dataflow {

/// Type tag for a Value / Column.
enum class ValueType : std::uint8_t {
  Null = 0,  ///< untyped null (only valid as a cell state, not a column type)
  Int64 = 1,
  Float64 = 2,
  String = 3,  ///< also used for raw byte payloads
};

/// Human-readable type name ("null", "int64", "float64", "string").
std::string_view to_string(ValueType type);

/// One boxed cell.
class Value {
 public:
  Value() = default;
  Value(std::int64_t v) : data_(v) {}  // NOLINT(google-explicit-constructor)
  Value(double v) : data_(v) {}        // NOLINT(google-explicit-constructor)
  Value(std::string v) : data_(std::move(v)) {}  // NOLINT
  Value(const char* v) : data_(std::string(v)) {}  // NOLINT
  Value(std::string_view v) : data_(std::string(v)) {}  // NOLINT
  // Guard against bool silently converting to int64.
  Value(bool) = delete;

  [[nodiscard]] ValueType type() const {
    return static_cast<ValueType>(data_.index());
  }
  [[nodiscard]] bool is_null() const { return data_.index() == 0; }

  /// Typed accessors. Precondition: type() matches (checked in debug builds
  /// by std::get).
  [[nodiscard]] std::int64_t as_int64() const {
    return std::get<std::int64_t>(data_);
  }
  [[nodiscard]] double as_float64() const { return std::get<double>(data_); }
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(data_);
  }

  /// Render the cell for display / CSV. Null renders as empty string.
  [[nodiscard]] std::string to_display_string() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.data_ == b.data_;
  }
  friend auto operator<=>(const Value& a, const Value& b) {
    return a.data_ <=> b.data_;
  }

 private:
  std::variant<std::monostate, std::int64_t, double, std::string> data_;
};

}  // namespace ivt::dataflow
