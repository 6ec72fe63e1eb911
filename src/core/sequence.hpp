// Materialized per-signal sequences (the K_s^{s_id} of Algorithm 1).
//
// Branch processing, reduction marks and extensions all operate on one
// signal type's instance sequence; SequenceData is its columnar,
// cache-friendly materialization.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ivt::core {

/// One signal type's instances on one channel, time-ordered.
struct SequenceData {
  std::string s_id;
  std::string bus;
  std::vector<std::int64_t> t;
  std::vector<double> v_num;          ///< 0.0 where invalid
  std::vector<std::uint8_t> has_num;
  std::vector<std::string> v_str;     ///< empty where invalid
  std::vector<std::uint8_t> has_str;

  [[nodiscard]] std::size_t size() const { return t.size(); }
  [[nodiscard]] bool empty() const { return t.empty(); }
  /// Wall-time span in seconds (0 for < 2 elements).
  [[nodiscard]] double duration_s() const {
    return t.size() < 2
               ? 0.0
               : static_cast<double>(t.back() - t.front()) / 1e9;
  }
};

}  // namespace ivt::core
