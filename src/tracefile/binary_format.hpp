// Binary trace container (.ivt) — the repo's stand-in for BLF/MDF logs.
//
// Layout (all integers little-endian):
//   magic "IVTR" | u32 version | u8 vehicle_len | vehicle | u8 journey_len
//   | journey | i64 start_unix_ns | records...
// Record stream (tag byte per entry):
//   0x01 bus definition: u16 index | u8 name_len | name
//   0x02 message record: i64 t_ns | u16 bus_index | u8 protocol
//                        | i64 message_id | u32 flags | u16 payload_len
//                        | payload
// Bus names are interned on first use, so multi-million-record traces do
// not repeat channel strings (the "memory efficiency" requirement of
// paper Sec. 3.2).
#pragma once

#include <iosfwd>
#include <string>
#include <unordered_map>

#include "errors/error.hpp"
#include "tracefile/trace.hpp"

namespace ivt::tracefile {

inline constexpr std::uint32_t kBinaryFormatVersion = 1;

/// Streaming writer: records can be appended one by one.
class TraceWriter {
 public:
  /// Writes the header immediately. The stream must outlive the writer.
  TraceWriter(std::ostream& out, const std::string& vehicle,
              const std::string& journey, std::int64_t start_unix_ns);

  void write(const TraceRecord& record);
  [[nodiscard]] std::size_t records_written() const { return written_; }

 private:
  std::uint16_t bus_index(const std::string& bus);

  std::ostream& out_;
  std::vector<std::string> buses_;
  /// Intern lookup: name -> index into buses_. Kept alongside the vector
  /// so interning stays O(1) per record instead of O(#buses).
  std::unordered_map<std::string, std::uint16_t> bus_lookup_;
  std::size_t written_ = 0;
};

/// Streaming reader.
class TraceReader {
 public:
  /// Reads and validates the header; throws std::runtime_error on a bad
  /// magic/version.
  explicit TraceReader(std::istream& in);

  [[nodiscard]] const std::string& vehicle() const { return vehicle_; }
  [[nodiscard]] const std::string& journey() const { return journey_; }
  [[nodiscard]] std::int64_t start_unix_ns() const { return start_unix_ns_; }

  /// Read the next record; false at (clean) EOF, throws on corruption.
  bool next(TraceRecord& record);

 private:
  std::istream& in_;
  std::string vehicle_;
  std::string journey_;
  std::int64_t start_unix_ns_ = 0;
  std::vector<std::string> buses_;
};

/// Whole-trace convenience wrappers. Failures surface as errors::Error
/// (Io for stream problems, Format/Decode for corrupt containers).
void save_trace(const Trace& trace, const std::string& path);
Trace load_trace(const std::string& path);

/// Vector-style ASC-like text export (one line per record) for eyeballing
/// traces in a pager; not meant to be re-parsed.
void export_asc(const Trace& trace, std::ostream& out);

}  // namespace ivt::tracefile
