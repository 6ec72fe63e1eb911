// The compressed (decode-free) evaluation path of the .ivc scan.
//
// The decoded path (decode_columns + materialize_kb_partition) pays the
// decompression tax for every zone-map-surviving chunk: every column is
// expanded into row vectors, and every row is probed against the compiled
// predicate. This file evaluates the predicate directly on the v2 key_idx
// RLE runs instead:
//
//   - the bus/id/pair conjuncts are folded into a per-dictionary-entry
//     bitmap once per file (compile_key_filter) — the membership test
//     runs per run, not per row;
//   - a rejected run is skipped whole: the timestamp cursor carries the
//     running delta sum across it, the payload cursor sums the lengths,
//     and the protocol/flags RLE cursors advance in O(runs crossed);
//   - an accepted run materializes rows with only the time-range check
//     left to apply, and both join-key columns (bus, message id) come
//     from the dictionary — the bus_index and message_id blocks of the
//     chunk are never decoded at all.
//
// Output contract: exactly the rows, in exactly the order, with exactly
// the bytes, of the decoded path under the same predicate. The property
// and differential suites pin this.
#include <cstdint>
#include <string>
#include <vector>

#include "colstore/chunk_decode.hpp"
#include "colstore/encoding.hpp"
#include "colstore/format.hpp"
#include "errors/error.hpp"
#include "tracefile/binary_format.hpp"

namespace ivt::colstore::detail {

namespace {

std::uint32_t get_le_u32(ByteCursor& in) {
  std::uint32_t value = 0;
  for (std::size_t i = 0; i < sizeof(std::uint32_t); ++i) {
    value |= static_cast<std::uint32_t>(in.u8()) << (8 * i);
  }
  return value;
}

}  // namespace

std::vector<std::uint8_t> compile_key_filter(
    const CompiledPredicate& compiled,
    const std::vector<KeyDictEntry>& key_dict) {
  std::vector<std::uint8_t> allowed(key_dict.size(), 1);
  for (std::size_t k = 0; k < key_dict.size(); ++k) {
    const KeyDictEntry& key = key_dict[k];
    bool ok = true;
    if (compiled.has_ids && !compiled.ids.contains(key.message_id)) {
      ok = false;
    }
    if (ok && compiled.has_buses &&
        (key.bus_index >= compiled.bus_allowed.size() ||
         compiled.bus_allowed[key.bus_index] == 0)) {
      ok = false;
    }
    if (ok && compiled.has_pairs &&
        !compiled.pairs.contains({key.bus_index, key.message_id})) {
      ok = false;
    }
    allowed[k] = ok ? 1 : 0;
  }
  return allowed;
}

dataflow::Partition scan_chunk_compressed(
    ByteSpan extent, std::uint32_t row_count,
    const std::vector<std::string>& buses,
    const std::vector<KeyDictEntry>& key_dict,
    const std::vector<std::uint8_t>& key_allowed,
    const CompiledPredicate& compiled, ScanStats& stats,
    std::vector<EmittedRun>* runs) {
  ByteCursor in(extent);
  const std::uint32_t rows = get_le_u32(in);
  if (rows != row_count) {
    IVT_THROW(errors::Category::Decode, "ivc: chunk row count mismatch");
  }
  auto next_block = [&in]() {
    const std::uint32_t len = get_le_u32(in);
    return in.bytes(len);
  };
  const ByteSpan t_block = next_block();
  next_block();  // bus_index: never decoded (dictionary carries the bus)
  const ByteSpan protocol_block = next_block();
  next_block();  // message_id: never decoded (dictionary carries the id)
  const ByteSpan flags_block = next_block();
  const ByteSpan len_block = next_block();
  const ByteSpan payload = next_block();
  const ByteSpan key_block = next_block();

  dataflow::Partition out =
      dataflow::Table::make_partition(tracefile::kb_schema());
  if (rows == 0) {
    if (payload.size != 0) {
      IVT_THROW(errors::Category::Decode,
                "ivc: payload block size mismatch");
    }
    return out;
  }
  if (key_dict.empty()) {
    IVT_THROW(errors::Category::Decode, "ivc: key index out of range");
  }

  RleRunCursor keys(key_block, rows, key_dict.size() - 1,
                    "ivc: key index out of range");
  RleRunCursor protocols(protocol_block, rows, 0xFF,
                         "ivc: corrupt protocol/flags column");
  RleRunCursor flags(flags_block, rows, 0xFFFFFFFFULL,
                     "ivc: corrupt protocol/flags column");
  ByteCursor t_cur(t_block);
  ByteCursor len_cur(len_block);
  std::uint64_t t_prev = 0;     // wrapped running timestamp
  std::size_t payload_pos = 0;  // payload bytes consumed so far

  std::size_t rows_done = 0;
  while (rows_done < rows) {
    const auto [key, run] = keys.take_run();
    ++stats.runs_considered;
    if (key_allowed[static_cast<std::size_t>(key)] == 0) {
      ++stats.runs_pruned;
      t_prev += skip_delta_sum(t_cur, run);
      const std::uint64_t skipped = skip_uvarint_sum(len_cur, run);
      if (skipped > payload.size - payload_pos) {
        IVT_THROW(errors::Category::Decode,
                  "ivc: payload block size mismatch");
      }
      payload_pos += static_cast<std::size_t>(skipped);
      protocols.skip(run);
      flags.skip(run);
    } else {
      ++stats.runs_accepted;
      const KeyDictEntry& dict = key_dict[static_cast<std::size_t>(key)];
      if (dict.bus_index >= buses.size()) {
        IVT_THROW(errors::Category::Decode,
                  "ivc: key dictionary bus index out of range");
      }
      const std::string& bus_name = buses[dict.bus_index];
      const std::size_t first_out = out.num_rows();
      for (std::size_t i = 0; i < run; ++i) {
        t_prev += static_cast<std::uint64_t>(get_svarint(t_cur));
        const std::int64_t t = static_cast<std::int64_t>(t_prev);
        const std::uint64_t len = get_uvarint(len_cur);
        if (len > payload.size - payload_pos) {
          IVT_THROW(errors::Category::Decode,
                    "ivc: payload block size mismatch");
        }
        const std::size_t pos = payload_pos;
        payload_pos += static_cast<std::size_t>(len);
        const std::uint64_t protocol = protocols.next();
        const std::uint64_t flag = flags.next();
        if (compiled.has_time_range &&
            (t < compiled.min_t_ns || t > compiled.max_t_ns)) {
          continue;
        }
        out.columns[0].append_int64(t);
        out.columns[1].append_string(std::string(
            reinterpret_cast<const char*>(payload.data) + pos,
            static_cast<std::size_t>(len)));
        out.columns[2].append_string(bus_name);
        out.columns[3].append_int64(dict.message_id);
        out.columns[4].append_string(tracefile::make_m_info(
            static_cast<protocol::Protocol>(protocol),
            static_cast<std::uint32_t>(flag)));
      }
      const std::size_t emitted = out.num_rows() - first_out;
      if (runs != nullptr && emitted > 0) {
        runs->push_back(EmittedRun{static_cast<std::uint32_t>(key),
                                   first_out, emitted});
      }
    }
    rows_done += run;
  }
  if (payload_pos != payload.size) {
    IVT_THROW(errors::Category::Decode, "ivc: payload block size mismatch");
  }
  return out;
}

}  // namespace ivt::colstore::detail
