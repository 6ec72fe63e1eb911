// Minimal JSON support for the ivt-serve wire protocol.
//
// Requests and response headers are small JSON documents inside a
// length-prefixed frame (see serve/wire.hpp). This header provides the
// two halves the daemon needs and nothing more:
//
//   - json::parse(text)  — recursive-descent parser into a Value tree.
//     Malformed input throws errors::Error(Category::Decode): a bad
//     request body is data corruption from the server's point of view,
//     never a crash. Integer-looking numbers keep exact 64-bit values
//     (trace timestamps exceed double's 53-bit mantissa).
//   - json::Object       — ordered key -> rendered-value builder for
//     responses (same escaping rules as obs/bench emitters).
//
// Dependency-free by design: the container already bans new third-party
// dependencies, and the protocol needs only objects, arrays, strings,
// numbers and bools.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "errors/error.hpp"

namespace ivt::serve::json {

struct Value;
using Array = std::vector<Value>;
using Members = std::map<std::string, Value>;

struct Value {
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               Array, Members>
      v;

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(v);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(v);
  }
  [[nodiscard]] bool is_int() const {
    return std::holds_alternative<std::int64_t>(v);
  }
  [[nodiscard]] bool is_number() const {
    return is_int() || std::holds_alternative<double>(v);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(v);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<Array>(v);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<Members>(v);
  }

  [[nodiscard]] bool boolean() const { return std::get<bool>(v); }
  [[nodiscard]] std::int64_t integer() const;
  [[nodiscard]] double number() const;
  [[nodiscard]] const std::string& string() const {
    return std::get<std::string>(v);
  }
  [[nodiscard]] const Array& array() const { return std::get<Array>(v); }
  [[nodiscard]] const Members& members() const {
    return std::get<Members>(v);
  }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(const std::string& key) const;

  // Typed member accessors with fallbacks, the shape request parsing
  // wants. A present-but-wrong-type member throws errors::Error(Decode).
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  /// Member must be an array of strings when present; empty otherwise.
  [[nodiscard]] std::vector<std::string> get_string_list(
      const std::string& key) const;
};

/// Parse a complete JSON document. Throws errors::Error(Category::Decode)
/// on malformed input or trailing content.
[[nodiscard]] Value parse(const std::string& text);

/// RFC 8259 string escaping: support::json_escape, under the name the
/// serve JSON API has always exported (shared with the writer below).
[[nodiscard]] std::string escape(const std::string& s);

/// Ordered JSON object builder for responses. Values render immediately,
/// so nesting is composed by passing a rendered Object/array via raw().
class Object {
 public:
  Object& add(const std::string& key, const std::string& value);
  Object& add(const std::string& key, const char* value);
  Object& add(const std::string& key, std::int64_t value);
  Object& add(const std::string& key, std::uint64_t value);
  Object& add(const std::string& key, double value);
  Object& add(const std::string& key, bool value);
  /// Pre-rendered JSON (nested object, array).
  Object& raw(const std::string& key, const std::string& rendered);

  [[nodiscard]] std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Render a string array ["a", "b"].
[[nodiscard]] std::string render_array(const std::vector<std::string>& items);

}  // namespace ivt::serve::json
