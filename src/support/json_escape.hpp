// The one JSON string escaper behind every JSON document the tree writes
// (reports, failure manifests, metrics snapshots, event logs, serve
// responses, benchmark rows).
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace ivt::support {

/// Append `s` to `out` as the body of a JSON string literal (without the
/// quotes): `"` and `\` are backslash-escaped, newline, carriage return
/// and tab take their short forms, and every other byte below 0x20
/// becomes \u00XX. Bytes from 0x80 up pass through, so UTF-8 stays UTF-8.
inline void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20U) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// `s` escaped as the body of a JSON string literal.
[[nodiscard]] inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_json_escaped(out, s);
  return out;
}

}  // namespace ivt::support
