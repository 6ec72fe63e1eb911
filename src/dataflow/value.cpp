#include "dataflow/value.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace ivt::dataflow {

std::string_view to_string(ValueType type) {
  switch (type) {
    case ValueType::Null:
      return "null";
    case ValueType::Int64:
      return "int64";
    case ValueType::Float64:
      return "float64";
    case ValueType::String:
      return "string";
  }
  return "unknown";
}

std::string Value::to_display_string() const {
  switch (type()) {
    case ValueType::Null:
      return "";
    case ValueType::Int64:
      return std::to_string(as_int64());
    case ValueType::Float64: {
      const double v = as_float64();
      // Render integral doubles without a trailing ".000000" but keep full
      // precision otherwise; %.9g round-trips the values we produce.
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", v);
      return buf;
    }
    case ValueType::String:
      return as_string();
  }
  return "";
}

}  // namespace ivt::dataflow
