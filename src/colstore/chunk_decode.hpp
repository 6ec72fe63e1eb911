// Internal decode machinery of the .ivc container, shared between the
// materializing ColumnarReader::scan path and the morsel-driven
// ChunkCursor. Not part of the public colstore API.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "colstore/encoding.hpp"
#include "colstore/format.hpp"
#include "dataflow/table.hpp"

namespace ivt::colstore::detail {

/// Row-level filter compiled against one file's bus dictionary.
struct CompiledPredicate {
  bool never_matches = false;
  bool has_ids = false;
  std::unordered_set<std::int64_t> ids;
  bool has_buses = false;
  std::vector<std::uint8_t> bus_allowed;  ///< indexed by dictionary index
  bool has_time_range = false;
  std::int64_t min_t_ns = 0;
  std::int64_t max_t_ns = 0;
  bool has_pairs = false;
  struct PairHash {
    std::size_t operator()(
        const std::pair<std::uint16_t, std::int64_t>& p) const {
      return std::hash<std::int64_t>{}(p.second) * 8191 + p.first;
    }
  };
  std::unordered_set<std::pair<std::uint16_t, std::int64_t>, PairHash> pairs;

  [[nodiscard]] bool matches_row(std::uint16_t bus, std::int64_t mid,
                                 std::int64_t t) const {
    if (has_time_range && (t < min_t_ns || t > max_t_ns)) return false;
    if (has_ids && !ids.contains(mid)) return false;
    if (has_buses && bus_allowed[bus] == 0) return false;
    if (has_pairs && !pairs.contains({bus, mid})) return false;
    return true;
  }
};

CompiledPredicate compile_predicate(const ScanPredicate& pred,
                                    const std::vector<std::string>& buses);

/// Dictionary indices the predicate's bus constraint resolves to (for the
/// zone-map bitmap test). Pairs contribute only when no plain bus set is
/// given — with both present the plain set is the looser prune bound.
std::vector<std::uint16_t> prune_bus_indices(
    const ScanPredicate& pred, const std::vector<std::string>& buses);

/// Decoded column vectors of one chunk.
struct DecodedChunk {
  std::vector<std::int64_t> t_ns;
  std::vector<std::uint64_t> bus_idx;
  std::vector<std::uint64_t> protocol;
  std::vector<std::int64_t> message_id;
  std::vector<std::uint64_t> flags;
  std::vector<std::uint64_t> payload_len;
  std::vector<std::uint64_t> key_idx;  ///< v2 only; empty for v1
  ByteSpan payload;
};

/// Decode every column of one chunk extent holding `row_count` rows (per
/// the directory). For version >= 2 the key_idx column is decoded too and
/// cross-checked row-wise against the key dictionary and the
/// bus/message-id columns (a disagreement is a typed decode error — it
/// would make the compressed and decoded paths diverge).
DecodedChunk decode_columns(ByteSpan extent, std::uint32_t row_count,
                            std::uint32_t version, std::size_t num_buses,
                            const std::vector<KeyDictEntry>& key_dict);

/// Materialize decoded columns into a K_b-schema partition, applying the
/// compiled row filter.
dataflow::Partition materialize_kb_partition(
    const DecodedChunk& chunk, std::uint32_t row_count,
    const std::vector<std::string>& buses, const CompiledPredicate& compiled);

/// Dictionary form of the predicate's run-constant conjuncts: entry k is
/// nonzero when (key_dict[k].bus_index, key_dict[k].message_id) passes the
/// bus/id/pair checks of `compiled` — everything except the time range,
/// which can split a run and stays row-level. Evaluated once per file.
std::vector<std::uint8_t> compile_key_filter(
    const CompiledPredicate& compiled,
    const std::vector<KeyDictEntry>& key_dict);

/// The compressed (run-level) evaluation of one v2 chunk: walk the
/// key_idx RLE runs, skip rejected runs by advancing the column cursors
/// (the bus and message-id blocks are never decoded at all — both values
/// come from the dictionary), and materialize accepted runs row by row
/// with only the time-range check left to apply. Emits exactly the rows,
/// in exactly the order, of decode_columns + materialize_kb_partition
/// under the same predicate. `stats` receives the run counters; `runs`
/// (optional) receives the accepted runs in output-row coordinates for
/// the dictionary join.
dataflow::Partition scan_chunk_compressed(
    ByteSpan extent, std::uint32_t row_count,
    const std::vector<std::string>& buses,
    const std::vector<KeyDictEntry>& key_dict,
    const std::vector<std::uint8_t>& key_allowed,
    const CompiledPredicate& compiled, ScanStats& stats,
    std::vector<EmittedRun>* runs);

}  // namespace ivt::colstore::detail
