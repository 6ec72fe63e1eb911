// Columnar trace container (.ivc) — chunked, compressed, zone-mapped.
//
// Layout (all fixed-width integers little-endian):
//
//   header : magic "IVCC" | u32 version | u8 vehicle_len | vehicle
//            | u8 journey_len | journey | i64 start_unix_ns
//   chunks : row-group chunks back to back; each chunk is
//            u32 row_count, then the column blocks, each prefixed with a
//            u32 encoded byte length:
//              0 t_ns        delta + zigzag varint
//              1 bus_index   RLE (value, run) uvarint pairs
//              2 protocol    RLE (value, run) uvarint pairs
//              3 message_id  zigzag varint
//              4 flags       RLE (value, run) uvarint pairs
//              5 payload_len uvarint per row
//              6 payload     concatenated raw bytes
//              7 key_idx     RLE (value, run) uvarint pairs   (v2 only)
//   footer : bus dictionary (u16 count | (u8 len | name)*)
//            | key dictionary (v2 only: u32 count |
//              (u16 bus_index | i64 message_id)*)
//            | u32 chunk_count | chunk directory entries (ChunkInfo)
//   tail   : u64 footer_offset | magic "IVCF"
//
// The per-chunk directory entry carries the zone map preselection prunes
// on: min/max t_ns, min/max message_id, a bus-index bitmap and the row
// count. Zone maps are conservative — a surviving chunk still gets
// row-filtered during decode.
//
// Version 2 dictionary-encodes the join key: every distinct
// (bus_index, message_id) pair is interned file-wide at pack time, and
// column 7 stores each row's dictionary index run-length encoded. Because
// CAN traffic is bursty and periodic, key runs are long, which makes the
// run the natural evaluation unit of the compressed scan path: a run
// either wholly passes or wholly fails the (b_id, m_id) membership test,
// so whole runs are accepted or skipped without materializing rows, and
// the bus/message-id columns are never decoded at all (both values are a
// dictionary lookup). Readers accept v1 and v2; the writer emits v2.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "errors/error.hpp"
#include "errors/failure_log.hpp"

namespace ivt::colstore {

inline constexpr char kChunkMagic[4] = {'I', 'V', 'C', 'C'};
inline constexpr char kFooterMagic[4] = {'I', 'V', 'C', 'F'};
inline constexpr std::uint32_t kColumnarFormatVersionV1 = 1;
inline constexpr std::uint32_t kColumnarFormatVersion = 2;
inline constexpr std::size_t kColumnsPerChunkV1 = 7;
inline constexpr std::size_t kColumnsPerChunk = 8;
inline constexpr std::size_t kDefaultChunkRows = 65536;

/// One interned (bus_index, message_id) join key of the v2 footer key
/// dictionary, in first-appearance order.
struct KeyDictEntry {
  std::uint16_t bus_index = 0;
  std::int64_t message_id = 0;

  bool operator==(const KeyDictEntry&) const = default;
};

/// Per-chunk statistics + location: one directory entry of the footer.
struct ChunkInfo {
  std::uint64_t offset = 0;        ///< file offset of the chunk's row_count
  std::uint64_t encoded_bytes = 0; ///< total chunk size on disk
  std::uint32_t row_count = 0;
  std::int64_t min_t_ns = 0;
  std::int64_t max_t_ns = 0;
  std::int64_t min_message_id = 0;
  std::int64_t max_message_id = 0;
  /// Bitmap over bus dictionary indices (word i bit b = index 64*i + b).
  std::vector<std::uint64_t> bus_bits;

  [[nodiscard]] bool has_bus(std::uint16_t index) const {
    const std::size_t word = index / 64;
    return word < bus_bits.size() &&
           (bus_bits[word] >> (index % 64)) & 1;
  }
  void set_bus(std::uint16_t index) {
    const std::size_t word = index / 64;
    if (word >= bus_bits.size()) bus_bits.resize(word + 1, 0);
    bus_bits[word] |= std::uint64_t{1} << (index % 64);
  }
};

/// Everything a reader knows about a .ivc file without touching a chunk
/// body: the header identity plus the parsed footer (bus and join-key
/// dictionaries, chunk directory). ColumnarReader holds one next to the
/// file image; the ivt-serve catalog holds only this and fetches chunk
/// extents on demand.
struct Footer {
  std::string vehicle;
  std::string journey;
  std::int64_t start_unix_ns = 0;
  std::uint32_t version = kColumnarFormatVersion;
  std::vector<std::string> buses;
  /// v2 join-key dictionary in first-appearance order (empty for v1).
  std::vector<KeyDictEntry> key_dict;
  std::vector<ChunkInfo> chunks;

  [[nodiscard]] std::size_t num_rows() const {
    std::size_t rows = 0;
    for (const ChunkInfo& c : chunks) rows += c.row_count;
    return rows;
  }
};

/// Pushed-down scan filter. Every set member is a conjunct; an empty
/// predicate matches all rows. `bus_message_pairs` refines the two
/// independent sets to exact (b_id, m_id) combinations — the shape of the
/// paper's U_comb preselection set — so a pushed-down scan returns K_pre
/// exactly, not a superset.
struct ScanPredicate {
  std::vector<std::int64_t> message_ids;  ///< empty = any id
  std::vector<std::string> buses;         ///< empty = any bus
  bool has_time_range = false;
  std::int64_t min_t_ns = 0;  ///< inclusive, used when has_time_range
  std::int64_t max_t_ns = 0;  ///< inclusive, used when has_time_range
  std::vector<std::pair<std::string, std::int64_t>> bus_message_pairs;

  [[nodiscard]] bool unconstrained() const {
    return message_ids.empty() && buses.empty() && !has_time_range &&
           bus_message_pairs.empty();
  }
};

/// Zone-map test: can any row of `chunk` match `pred`? (Bus names have
/// been resolved to dictionary indices by the reader; an id requested but
/// absent from the dictionary can never match.)
bool chunk_may_match(const ChunkInfo& chunk, const ScanPredicate& pred,
                     const std::vector<std::uint16_t>& pred_bus_indices);

/// Counters of one scan, for tests / `ivt inspect` / benchmarks.
struct ScanStats {
  std::size_t chunks_total = 0;
  std::size_t chunks_scanned = 0;   ///< survived the zone maps
  std::size_t rows_considered = 0;  ///< rows in surviving chunks
  std::size_t rows_emitted = 0;     ///< rows passing the row-level filter
  std::size_t chunks_quarantined = 0;  ///< failed decode, skipped (policy)
  std::size_t rows_quarantined = 0;    ///< directory rows of those chunks
  // Compressed-mode run accounting (zero under ScanMode::Decoded): key
  // runs evaluated against the dictionary filter, runs skipped whole,
  // and runs whose rows were materialized.
  std::size_t runs_considered = 0;
  std::size_t runs_pruned = 0;
  std::size_t runs_accepted = 0;
};

/// How surviving chunks are evaluated.
///
/// Decoded (default): decode every column of the chunk into row vectors,
/// then apply the compiled row filter while materializing.
///
/// Compressed (v2 files): drive the scan off the key_idx RLE runs — the
/// predicate's bus/id/pair conjuncts are evaluated once per dictionary
/// entry, each run is accepted or skipped whole, skipped runs advance the
/// column cursors without materializing anything, and the bus/message-id
/// columns are never decoded (dictionary lookup). Output is byte-identical
/// to Decoded; v1 files fall back to the decoded path per chunk.
enum class ScanMode { Decoded, Compressed };

/// Parse "decoded" / "compressed" (the CLI --scan values); throws
/// std::invalid_argument on anything else.
ScanMode parse_scan_mode(const std::string& text);
[[nodiscard]] const char* to_string(ScanMode mode);

/// Failure handling of one scan. The default (Fail) propagates the first
/// decode error; Skip/Quarantine drop the failing chunk, resync to the
/// next chunk boundary (chunk extents come from the footer directory, so
/// a corrupt body never desyncs its neighbours), and record the loss in
/// ScanStats — Quarantine additionally appends a FailureRecord per chunk
/// to `failures` for the sidecar manifest.
struct ScanOptions {
  errors::ErrorPolicy on_error = errors::ErrorPolicy::Fail;
  errors::FailureLog* failures = nullptr;  ///< optional, Quarantine only
  ScanMode mode = ScanMode::Decoded;
};

/// One accepted key run of a compressed chunk scan, in output (partition)
/// row coordinates: rows [row_begin, row_begin + row_count) of the emitted
/// partition all carry dictionary key `key`. The interpretation join uses
/// this to probe the broadcast side once per run (array index) instead of
/// once per row (string hash).
struct EmittedRun {
  std::uint32_t key = 0;
  std::size_t row_begin = 0;
  std::size_t row_count = 0;
};

}  // namespace ivt::colstore
