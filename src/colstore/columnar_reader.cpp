#include "colstore/columnar_reader.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "colstore/chunk_cursor.hpp"
#include "colstore/chunk_decode.hpp"
#include "colstore/encoding.hpp"
#include "dataflow/engine.hpp"
#include "errors/error.hpp"
#include "faultfx/faultfx.hpp"
#include "obs/obs.hpp"
#include "tracefile/binary_format.hpp"

namespace ivt::colstore {

namespace {

template <typename T>
T get_le(ByteCursor& in) {
  static_assert(std::is_integral_v<T>);
  std::make_unsigned_t<T> value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    value |= static_cast<std::make_unsigned_t<T>>(in.u8()) << (8 * i);
  }
  return static_cast<T>(value);
}

std::string get_short_string(ByteCursor& in) {
  const std::uint8_t len = get_le<std::uint8_t>(in);
  const ByteSpan bytes = in.bytes(len);
  return std::string(reinterpret_cast<const char*>(bytes.data), bytes.size);
}

}  // namespace

namespace detail {

CompiledPredicate compile_predicate(const ScanPredicate& pred,
                                    const std::vector<std::string>& buses) {
  CompiledPredicate c;
  c.has_ids = !pred.message_ids.empty();
  c.ids.insert(pred.message_ids.begin(), pred.message_ids.end());
  c.has_time_range = pred.has_time_range;
  c.min_t_ns = pred.min_t_ns;
  c.max_t_ns = pred.max_t_ns;

  auto resolve_bus = [&buses](const std::string& name)
      -> std::optional<std::uint16_t> {
    const auto it = std::find(buses.begin(), buses.end(), name);
    if (it == buses.end()) return std::nullopt;
    return static_cast<std::uint16_t>(it - buses.begin());
  };

  if (!pred.buses.empty()) {
    c.has_buses = true;
    c.bus_allowed.assign(buses.size(), 0);
    bool any = false;
    for (const std::string& name : pred.buses) {
      if (const auto idx = resolve_bus(name)) {
        c.bus_allowed[*idx] = 1;
        any = true;
      }
    }
    if (!any) c.never_matches = true;  // requested buses absent from file
  }
  if (!pred.bus_message_pairs.empty()) {
    c.has_pairs = true;
    for (const auto& [name, mid] : pred.bus_message_pairs) {
      if (const auto idx = resolve_bus(name)) c.pairs.insert({*idx, mid});
    }
    if (c.pairs.empty()) c.never_matches = true;
  }
  return c;
}

std::vector<std::uint16_t> prune_bus_indices(
    const ScanPredicate& pred, const std::vector<std::string>& buses) {
  std::vector<std::uint16_t> out;
  auto add = [&buses, &out](const std::string& name) {
    const auto it = std::find(buses.begin(), buses.end(), name);
    if (it != buses.end()) {
      out.push_back(static_cast<std::uint16_t>(it - buses.begin()));
    }
  };
  if (!pred.buses.empty()) {
    for (const std::string& name : pred.buses) add(name);
  } else {
    for (const auto& [name, mid] : pred.bus_message_pairs) add(name);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace detail

ScanMode parse_scan_mode(const std::string& text) {
  if (text == "decoded") return ScanMode::Decoded;
  if (text == "compressed") return ScanMode::Compressed;
  throw std::invalid_argument("unknown scan mode '" + text +
                              "' (expected decoded|compressed)");
}

const char* to_string(ScanMode mode) {
  return mode == ScanMode::Compressed ? "compressed" : "decoded";
}

bool chunk_may_match(const ChunkInfo& chunk, const ScanPredicate& pred,
                     const std::vector<std::uint16_t>& pred_bus_indices) {
  if (pred.has_time_range &&
      (chunk.max_t_ns < pred.min_t_ns || chunk.min_t_ns > pred.max_t_ns)) {
    return false;
  }
  const std::vector<std::int64_t>* ids = &pred.message_ids;
  std::vector<std::int64_t> pair_ids;
  if (ids->empty() && !pred.bus_message_pairs.empty()) {
    pair_ids.reserve(pred.bus_message_pairs.size());
    for (const auto& [bus, mid] : pred.bus_message_pairs) {
      pair_ids.push_back(mid);
    }
    ids = &pair_ids;
  }
  if (!ids->empty()) {
    bool any = false;
    for (const std::int64_t id : *ids) {
      if (id >= chunk.min_message_id && id <= chunk.max_message_id) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  const bool has_bus_constraint =
      !pred.buses.empty() || !pred.bus_message_pairs.empty();
  if (has_bus_constraint) {
    bool any = false;
    for (const std::uint16_t idx : pred_bus_indices) {
      if (chunk.has_bus(idx)) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

ColumnarReader::ColumnarReader(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) IVT_THROW(errors::Category::Io, "cannot open for read: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in) IVT_THROW(errors::Category::Io, "read failed: " + path);
  data_ = std::move(buffer).str();
  errors::with_context("indexing " + path, [this] { parse(); });
}

ColumnarReader::ColumnarReader(std::string data, FromBufferTag)
    : data_(std::move(data)) {
  parse();
}

ColumnarReader ColumnarReader::from_buffer(std::string data) {
  return ColumnarReader(std::move(data), FromBufferTag{});
}

void ColumnarReader::parse() {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(data_.data());
  const std::size_t size = data_.size();
  constexpr std::size_t kTailBytes = sizeof(std::uint64_t) + 4;
  if (size < sizeof(kChunkMagic) + sizeof(std::uint32_t) + kTailBytes ||
      std::memcmp(bytes, kChunkMagic, sizeof(kChunkMagic)) != 0) {
    IVT_THROW(errors::Category::Format, "ivc: bad magic");
  }

  ByteCursor header(ByteSpan{bytes + sizeof(kChunkMagic),
                             size - sizeof(kChunkMagic)});
  const std::uint32_t version = get_le<std::uint32_t>(header);
  if (version != kColumnarFormatVersionV1 &&
      version != kColumnarFormatVersion) {
    IVT_THROW(errors::Category::Format,
              "ivc: unsupported version " + std::to_string(version));
  }
  footer_.version = version;
  footer_.vehicle = get_short_string(header);
  footer_.journey = get_short_string(header);
  footer_.start_unix_ns = get_le<std::int64_t>(header);

  ByteCursor tail(ByteSpan{bytes + size - kTailBytes, kTailBytes});
  const std::uint64_t footer_offset = get_le<std::uint64_t>(tail);
  const ByteSpan tail_magic = tail.bytes(4);
  if (std::memcmp(tail_magic.data, kFooterMagic, 4) != 0) {
    IVT_THROW(errors::Category::Format, "ivc: bad footer magic");
  }
  if (footer_offset >= size - kTailBytes) {
    IVT_THROW(errors::Category::Format, "ivc: footer offset out of range");
  }

  const std::size_t footer_size =
      size - kTailBytes - static_cast<std::size_t>(footer_offset);
  ByteCursor footer(ByteSpan{bytes + footer_offset, footer_size});
  const std::uint16_t num_buses = get_le<std::uint16_t>(footer);
  footer_.buses.reserve(num_buses);
  for (std::uint16_t i = 0; i < num_buses; ++i) {
    footer_.buses.push_back(get_short_string(footer));
  }
  if (footer_.version >= 2) {
    const std::uint32_t num_keys = get_le<std::uint32_t>(footer);
    // Each entry takes 10 footer bytes: an implausible count is a typed
    // format error, not a multi-gigabyte reserve.
    if (num_keys > footer.remaining() / 10) {
      IVT_THROW(errors::Category::Format,
                "ivc: key dictionary count out of range");
    }
    footer_.key_dict.reserve(num_keys);
    for (std::uint32_t i = 0; i < num_keys; ++i) {
      KeyDictEntry key;
      key.bus_index = get_le<std::uint16_t>(footer);
      key.message_id = get_le<std::int64_t>(footer);
      if (key.bus_index >= num_buses) {
        IVT_THROW(errors::Category::Format,
                  "ivc: key dictionary bus index out of range");
      }
      footer_.key_dict.push_back(key);
    }
  }
  const std::uint32_t num_chunks = get_le<std::uint32_t>(footer);
  // A directory entry is at least 54 bytes; bound the reserve the same way.
  if (num_chunks > footer.remaining() / 54) {
    IVT_THROW(errors::Category::Format, "ivc: chunk count out of range");
  }
  footer_.chunks.reserve(num_chunks);
  for (std::uint32_t i = 0; i < num_chunks; ++i) {
    ChunkInfo info;
    info.offset = get_le<std::uint64_t>(footer);
    info.encoded_bytes = get_le<std::uint64_t>(footer);
    info.row_count = get_le<std::uint32_t>(footer);
    info.min_t_ns = get_le<std::int64_t>(footer);
    info.max_t_ns = get_le<std::int64_t>(footer);
    info.min_message_id = get_le<std::int64_t>(footer);
    info.max_message_id = get_le<std::int64_t>(footer);
    const std::uint16_t words = get_le<std::uint16_t>(footer);
    info.bus_bits.reserve(words);
    for (std::uint16_t w = 0; w < words; ++w) {
      info.bus_bits.push_back(get_le<std::uint64_t>(footer));
    }
    if (info.offset + info.encoded_bytes > footer_offset ||
        info.offset + info.encoded_bytes < info.offset) {
      IVT_THROW(errors::Category::Format, "ivc: chunk extent out of range");
    }
    // Every row costs at least one byte in the t_ns column and one in
    // payload_len, so a directory row count beyond the extent size is
    // corrupt — and would otherwise size decode allocations.
    if (info.row_count > info.encoded_bytes) {
      IVT_THROW(errors::Category::Format,
                "ivc: chunk row count implausible for extent");
    }
    footer_.chunks.push_back(std::move(info));
  }
}

namespace detail {

DecodedChunk decode_columns(ByteSpan extent, std::uint32_t row_count,
                            std::uint32_t version, std::size_t num_buses,
                            const std::vector<KeyDictEntry>& key_dict) {
  ByteCursor in(extent);
  const std::uint32_t rows = get_le<std::uint32_t>(in);
  if (rows != row_count) {
    IVT_THROW(errors::Category::Decode, "ivc: chunk row count mismatch");
  }
  auto next_block = [&in]() {
    const std::uint32_t len = get_le<std::uint32_t>(in);
    return in.bytes(len);
  };
  DecodedChunk chunk;
  chunk.t_ns = decode_delta(next_block(), rows);
  chunk.bus_idx = decode_rle(next_block(), rows);
  chunk.protocol = decode_rle(next_block(), rows);
  chunk.message_id = decode_svarints(next_block(), rows);
  chunk.flags = decode_rle(next_block(), rows);
  {
    ByteCursor lens(next_block());
    chunk.payload_len.resize(rows);
    for (std::uint32_t r = 0; r < rows; ++r) {
      chunk.payload_len[r] = get_uvarint(lens);
    }
  }
  chunk.payload = next_block();
  if (version >= 2) chunk.key_idx = decode_rle(next_block(), rows);

  std::uint64_t payload_total = 0;
  for (std::uint32_t r = 0; r < rows; ++r) {
    if (chunk.bus_idx[r] >= num_buses) {
      IVT_THROW(errors::Category::Decode, "ivc: bus index out of range");
    }
    if (chunk.protocol[r] > 0xFF || chunk.flags[r] > 0xFFFFFFFFULL) {
      IVT_THROW(errors::Category::Decode,
                "ivc: corrupt protocol/flags column");
    }
    payload_total += chunk.payload_len[r];
  }
  if (payload_total != chunk.payload.size) {
    IVT_THROW(errors::Category::Decode, "ivc: payload block size mismatch");
  }
  if (version >= 2) {
    // The key column must agree with the plain columns row-for-row, or
    // the compressed and decoded scan paths would silently diverge.
    for (std::uint32_t r = 0; r < rows; ++r) {
      const std::uint64_t k = chunk.key_idx[r];
      if (k >= key_dict.size() ||
          key_dict[static_cast<std::size_t>(k)].bus_index !=
              chunk.bus_idx[r] ||
          key_dict[static_cast<std::size_t>(k)].message_id !=
              chunk.message_id[r]) {
        IVT_THROW(errors::Category::Decode,
                  "ivc: key column inconsistent with dictionary");
      }
    }
  }
  return chunk;
}

dataflow::Partition materialize_kb_partition(
    const DecodedChunk& chunk, std::uint32_t row_count,
    const std::vector<std::string>& buses,
    const CompiledPredicate& compiled) {
  const dataflow::Schema& schema = tracefile::kb_schema();
  dataflow::Partition out = dataflow::Table::make_partition(schema);
  std::size_t payload_pos = 0;
  for (std::uint32_t r = 0; r < row_count; ++r) {
    const std::size_t len = static_cast<std::size_t>(chunk.payload_len[r]);
    const std::size_t pos = payload_pos;
    payload_pos += len;
    const auto bus = static_cast<std::uint16_t>(chunk.bus_idx[r]);
    if (!compiled.matches_row(bus, chunk.message_id[r], chunk.t_ns[r])) {
      continue;
    }
    out.columns[0].append_int64(chunk.t_ns[r]);
    out.columns[1].append_string(std::string(
        reinterpret_cast<const char*>(chunk.payload.data) + pos, len));
    out.columns[2].append_string(buses[bus]);
    out.columns[3].append_int64(chunk.message_id[r]);
    out.columns[4].append_string(tracefile::make_m_info(
        static_cast<protocol::Protocol>(chunk.protocol[r]),
        static_cast<std::uint32_t>(chunk.flags[r])));
  }
  return out;
}

}  // namespace detail

ChunkSource ColumnarReader::source() const {
  return {&footer_, [this](std::size_t chunk) {
            const ChunkInfo& info = footer_.chunks[chunk];
            return ChunkExtent{
                ByteSpan{reinterpret_cast<const std::uint8_t*>(data_.data()) +
                             info.offset,
                         static_cast<std::size_t>(info.encoded_bytes)},
                nullptr};
          }};
}

ChunkCursor ColumnarReader::cursor(const ScanPredicate& pred,
                                   ScanOptions options) const {
  return ChunkCursor(source(), pred, options);
}

dataflow::Table ColumnarReader::scan_with_runner(const ScanPredicate& pred,
                                                 const TaskRunner& run,
                                                 const ScanOptions& options,
                                                 ScanStats* stats) const {
  OBS_SPAN_V(scan_span, "colstore.scan");
  const ChunkCursor cursor = this->cursor(pred, options);
  const dataflow::Schema& schema = tracefile::kb_schema();
  std::vector<dataflow::Partition> partitions(cursor.num_morsels());
  run(cursor.num_morsels(),
      [&](std::size_t k) { partitions[k] = cursor.decode(k); });

  ScanStats local = cursor.stats();
  local.rows_emitted = 0;
  dataflow::Table table(schema);
  for (dataflow::Partition& p : partitions) {
    if (p.num_rows() == 0) continue;
    local.rows_emitted += p.num_rows();
    table.add_partition(std::move(p));
  }
  OBS_COUNT("colstore.rows_emitted", local.rows_emitted);
  OBS_COUNT("colstore.rows_pruned",
            num_rows() - local.rows_emitted);
  scan_span.set_rows(local.rows_emitted);
  if (stats != nullptr) *stats = local;
  return table;
}

dataflow::Table ColumnarReader::scan(const ScanPredicate& pred,
                                     ScanStats* stats) const {
  return scan(pred, ScanOptions{}, stats);
}

dataflow::Table ColumnarReader::scan(const ScanPredicate& pred,
                                     const ScanOptions& options,
                                     ScanStats* stats) const {
  return scan_with_runner(
      pred,
      [](std::size_t n, const std::function<void(std::size_t)>& task) {
        for (std::size_t i = 0; i < n; ++i) task(i);
      },
      options, stats);
}

dataflow::Table ColumnarReader::scan(const ScanPredicate& pred,
                                     dataflow::Engine& engine,
                                     ScanStats* stats) const {
  return scan(pred, engine, ScanOptions{}, stats);
}

dataflow::Table ColumnarReader::scan(const ScanPredicate& pred,
                                     dataflow::Engine& engine,
                                     const ScanOptions& options,
                                     ScanStats* stats) const {
  return scan_with_runner(
      pred,
      [&engine](std::size_t n,
                const std::function<void(std::size_t)>& task) {
        engine.parallel_for(n, task);
      },
      options, stats);
}

tracefile::Trace ColumnarReader::read_trace() const {
  tracefile::Trace trace;
  trace.vehicle = footer_.vehicle;
  trace.journey = footer_.journey;
  trace.start_unix_ns = footer_.start_unix_ns;
  trace.records.reserve(num_rows());
  const ChunkSource image = source();
  for (std::size_t i = 0; i < footer_.chunks.size(); ++i) {
    const ChunkInfo& info = footer_.chunks[i];
    const detail::DecodedChunk chunk = detail::decode_columns(
        image.fetch(i).bytes, info.row_count, footer_.version,
        footer_.buses.size(), footer_.key_dict);
    std::size_t payload_pos = 0;
    for (std::uint32_t r = 0; r < info.row_count; ++r) {
      tracefile::TraceRecord rec;
      rec.t_ns = chunk.t_ns[r];
      rec.bus = footer_.buses[static_cast<std::size_t>(chunk.bus_idx[r])];
      rec.message_id = chunk.message_id[r];
      rec.protocol = static_cast<protocol::Protocol>(chunk.protocol[r]);
      rec.flags = static_cast<std::uint32_t>(chunk.flags[r]);
      const std::size_t len =
          static_cast<std::size_t>(chunk.payload_len[r]);
      const auto* base =
          reinterpret_cast<const std::uint8_t*>(chunk.payload.data);
      rec.payload.assign(base + payload_pos, base + payload_pos + len);
      payload_pos += len;
      trace.records.push_back(std::move(rec));
    }
  }
  return trace;
}

bool is_columnar_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kChunkMagic, sizeof(magic)) == 0;
}

tracefile::Trace load_any_trace(const std::string& path) {
  if (is_columnar_trace_file(path)) {
    return ColumnarReader(path).read_trace();
  }
  return tracefile::load_trace(path);
}

}  // namespace ivt::colstore
