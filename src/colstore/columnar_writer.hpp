// Writer side of the .ivc columnar trace container.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "colstore/columnar_reader.hpp"
#include "colstore/format.hpp"
#include "errors/error.hpp"
#include "errors/failure_log.hpp"
#include "tracefile/trace.hpp"

namespace ivt::colstore {

struct ColumnarWriterOptions {
  /// Rows per chunk (row group). Smaller chunks prune better, larger
  /// chunks compress better.
  std::size_t chunk_rows = kDefaultChunkRows;
};

/// Streaming writer: append records one by one, then call finish() to
/// flush the last chunk and write the footer. A file without finish() is
/// unreadable (the footer carries the chunk directory).
class ColumnarWriter {
 public:
  /// Writes the header immediately. The stream must outlive the writer.
  ColumnarWriter(std::ostream& out, const std::string& vehicle,
                 const std::string& journey, std::int64_t start_unix_ns,
                 ColumnarWriterOptions options = {});

  void write(const tracefile::TraceRecord& record);

  /// Flush the pending chunk and write footer + tail. Must be called
  /// exactly once, after the last write().
  void finish();

  [[nodiscard]] std::size_t records_written() const { return written_; }
  [[nodiscard]] std::size_t chunks_written() const { return chunks_.size(); }

 private:
  std::uint16_t bus_index(const std::string& bus);
  std::uint32_t key_index(std::uint16_t bus, std::int64_t message_id);
  void flush_chunk();

  std::ostream& out_;
  ColumnarWriterOptions options_;
  std::uint64_t offset_ = 0;  ///< bytes written so far (footer needs offsets)
  bool finished_ = false;
  std::size_t written_ = 0;

  std::vector<std::string> buses_;
  std::unordered_map<std::string, std::uint16_t> bus_lookup_;
  /// File-wide (bus_index, message_id) join-key dictionary, interned in
  /// first-appearance order (v2 footer).
  std::vector<KeyDictEntry> key_dict_;
  struct KeyPairHash {
    std::size_t operator()(
        const std::pair<std::uint16_t, std::int64_t>& p) const {
      return std::hash<std::int64_t>{}(p.second) * 8191 + p.first;
    }
  };
  std::unordered_map<std::pair<std::uint16_t, std::int64_t>, std::uint32_t,
                     KeyPairHash>
      key_lookup_;
  std::vector<ChunkInfo> chunks_;

  // Pending chunk, column-major.
  std::vector<std::int64_t> t_ns_;
  std::vector<std::uint64_t> bus_idx_;
  std::vector<std::uint64_t> protocol_;
  std::vector<std::int64_t> message_id_;
  std::vector<std::uint64_t> flags_;
  std::vector<std::uint64_t> payload_len_;
  std::vector<std::uint64_t> key_idx_;
  std::string payload_bytes_;
};

/// Whole-trace convenience wrapper (the .ivc analogue of save_trace).
void save_trace_columnar(const tracefile::Trace& trace,
                         const std::string& path,
                         ColumnarWriterOptions options = {});

/// Streaming .ivt -> .ivc conversion (never materializes the trace).
struct PackStats {
  std::size_t records = 0;
  std::size_t chunks = 0;
  std::uint64_t input_bytes = 0;
  std::uint64_t output_bytes = 0;
};
PackStats pack_trace_file(const std::string& ivt_path,
                          const std::string& ivc_path,
                          ColumnarWriterOptions options = {});

/// The .ivc image of an in-memory trace, written by the same loop as
/// save_trace_columnar (ColumnarReader::from_buffer opens it).
std::string pack_trace(const tracefile::Trace& trace,
                       ColumnarWriterOptions options = {});

/// `trace` as a reader over its in-memory .ivc image (pack_trace).
ColumnarReader open_trace(const tracefile::Trace& trace,
                          ColumnarWriterOptions options = {});

/// Any trace file as a reader, so every input runs the one morsel
/// executor: a .ivc file opens as is; a .ivt file streams its records
/// through the pack_trace_file loop into an in-memory image at the
/// default chunk size, and no Trace is built. Under Skip/Quarantine a
/// corrupt .ivt record drops the tail of the stream (the record stream
/// has no framing to resync on) and the loss is recorded in `failures`
/// as a `tracefile.read_record` failure; under Fail it throws.
ColumnarReader open_trace(const std::string& path,
                          errors::ErrorPolicy on_error =
                              errors::ErrorPolicy::Fail,
                          errors::FailureLog* failures = nullptr);

}  // namespace ivt::colstore
