#include "serve/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "support/json_escape.hpp"

namespace ivt::serve::json {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    IVT_THROW(errors::Category::Decode,
              "serve: bad JSON at byte " + std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value() {
    skip_ws();
    if (depth_ > kMaxDepth) fail("nesting too deep");
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Value{parse_string()};
      case 't':
        if (consume_literal("true")) return Value{true};
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Value{false};
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Value{nullptr};
        fail("bad literal");
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    ++depth_;
    expect('{');
    Members members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return Value{std::move(members)};
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members[std::move(key)] = parse_value();
      skip_ws();
      const char sep = peek();
      ++pos_;
      if (sep == '}') break;
      if (sep != ',') fail("expected ',' or '}' in object");
    }
    --depth_;
    return Value{std::move(members)};
  }

  Value parse_array() {
    ++depth_;
    expect('[');
    Array items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return Value{std::move(items)};
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      const char sep = peek();
      ++pos_;
      if (sep == ']') break;
      if (sep != ',') fail("expected ',' or ']' in array");
    }
    --depth_;
    return Value{std::move(items)};
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4U;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // needed by the protocol; a lone surrogate encodes as-is).
          if (code < 0x80U) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800U) {
            out.push_back(static_cast<char>(0xC0U | (code >> 6U)));
            out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
          } else {
            out.push_back(static_cast<char>(0xE0U | (code >> 12U)));
            out.push_back(static_cast<char>(0x80U | ((code >> 6U) & 0x3FU)));
            out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
          }
          break;
        }
        default:
          fail("bad escape character");
      }
    }
    return out;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (text_[start] == '-' && pos_ == start + 1)) {
      fail("bad number");
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (is_integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        return Value{static_cast<std::int64_t>(v)};
      }
      // Out-of-range integer: fall through to double.
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number");
    return Value{d};
  }

  static constexpr int kMaxDepth = 64;

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

std::string render_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::int64_t Value::integer() const {
  if (is_int()) return std::get<std::int64_t>(v);
  return static_cast<std::int64_t>(std::get<double>(v));
}

double Value::number() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(v));
  return std::get<double>(v);
}

const Value* Value::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const Members& m = members();
  const auto it = m.find(key);
  return it == m.end() ? nullptr : &it->second;
}

std::string Value::get_string(const std::string& key,
                              const std::string& fallback) const {
  const Value* m = find(key);
  if (m == nullptr || m->is_null()) return fallback;
  if (!m->is_string()) {
    IVT_THROW(errors::Category::Decode,
              "serve: request field '" + key + "' must be a string");
  }
  return m->string();
}

std::int64_t Value::get_int(const std::string& key,
                            std::int64_t fallback) const {
  const Value* m = find(key);
  if (m == nullptr || m->is_null()) return fallback;
  if (!m->is_number()) {
    IVT_THROW(errors::Category::Decode,
              "serve: request field '" + key + "' must be a number");
  }
  return m->integer();
}

double Value::get_double(const std::string& key, double fallback) const {
  const Value* m = find(key);
  if (m == nullptr || m->is_null()) return fallback;
  if (!m->is_number()) {
    IVT_THROW(errors::Category::Decode,
              "serve: request field '" + key + "' must be a number");
  }
  return m->number();
}

bool Value::get_bool(const std::string& key, bool fallback) const {
  const Value* m = find(key);
  if (m == nullptr || m->is_null()) return fallback;
  if (!m->is_bool()) {
    IVT_THROW(errors::Category::Decode,
              "serve: request field '" + key + "' must be a boolean");
  }
  return m->boolean();
}

std::vector<std::string> Value::get_string_list(const std::string& key) const {
  const Value* m = find(key);
  std::vector<std::string> out;
  if (m == nullptr || m->is_null()) return out;
  if (!m->is_array()) {
    IVT_THROW(errors::Category::Decode, "serve: request field '" + key +
                                            "' must be an array of strings");
  }
  for (const Value& item : m->array()) {
    if (!item.is_string()) {
      IVT_THROW(errors::Category::Decode, "serve: request field '" + key +
                                              "' must be an array of strings");
    }
    out.push_back(item.string());
  }
  return out;
}

Value parse(const std::string& text) {
  return Parser(text).parse_document();
}

std::string escape(const std::string& s) { return support::json_escape(s); }

Object& Object::add(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, "\"" + escape(value) + "\"");
  return *this;
}

Object& Object::add(const std::string& key, const char* value) {
  return add(key, std::string(value));
}

Object& Object::add(const std::string& key, std::int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

Object& Object::add(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

Object& Object::add(const std::string& key, double value) {
  fields_.emplace_back(key, render_number(value));
  return *this;
}

Object& Object::add(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

Object& Object::raw(const std::string& key, const std::string& rendered) {
  fields_.emplace_back(key, rendered);
  return *this;
}

std::string Object::str() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, rendered] : fields_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + escape(key) + "\":" + rendered;
  }
  out += "}";
  return out;
}

std::string render_array(const std::vector<std::string>& items) {
  std::string out = "[";
  bool first = true;
  for (const std::string& item : items) {
    if (!first) out += ",";
    first = false;
    out += "\"" + escape(item) + "\"";
  }
  out += "]";
  return out;
}

}  // namespace ivt::serve::json
