#include "colstore/columnar_writer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "colstore/encoding.hpp"
#include "errors/error.hpp"
#include "obs/obs.hpp"
#include "tracefile/binary_format.hpp"

namespace ivt::colstore {

namespace {

template <typename T>
void put_le(std::ostream& out, std::uint64_t& offset, T value) {
  static_assert(std::is_integral_v<T>);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.put(static_cast<char>(
        (static_cast<std::make_unsigned_t<T>>(value) >> (8 * i)) & 0xFF));
  }
  offset += sizeof(T);
}

void put_bytes(std::ostream& out, std::uint64_t& offset, const char* data,
               std::size_t size) {
  out.write(data, static_cast<std::streamsize>(size));
  offset += size;
}

void put_block(std::ostream& out, std::uint64_t& offset,
               const std::string& block) {
  if (block.size() > std::numeric_limits<std::uint32_t>::max()) {
    IVT_THROW(errors::Category::Format, "ivc: column block too large");
  }
  put_le<std::uint32_t>(out, offset, static_cast<std::uint32_t>(block.size()));
  put_bytes(out, offset, block.data(), block.size());
}

}  // namespace

ColumnarWriter::ColumnarWriter(std::ostream& out, const std::string& vehicle,
                               const std::string& journey,
                               std::int64_t start_unix_ns,
                               ColumnarWriterOptions options)
    : out_(out), options_(options) {
  if (options_.chunk_rows == 0) options_.chunk_rows = kDefaultChunkRows;
  put_bytes(out_, offset_, kChunkMagic, sizeof(kChunkMagic));
  put_le<std::uint32_t>(out_, offset_, kColumnarFormatVersion);
  for (const std::string* s : {&vehicle, &journey}) {
    if (s->size() > 255) {
      IVT_THROW(errors::Category::Format, "ivc: string too long: " + *s);
    }
    put_le<std::uint8_t>(out_, offset_, static_cast<std::uint8_t>(s->size()));
    put_bytes(out_, offset_, s->data(), s->size());
  }
  put_le<std::int64_t>(out_, offset_, start_unix_ns);
}

std::uint16_t ColumnarWriter::bus_index(const std::string& bus) {
  const auto it = bus_lookup_.find(bus);
  if (it != bus_lookup_.end()) return it->second;
  if (bus.size() > 255) {
    IVT_THROW(errors::Category::Format, "ivc: bus name too long: " + bus);
  }
  if (buses_.size() >= 0xFFFF) {
    IVT_THROW(errors::Category::Format, "ivc: too many distinct buses");
  }
  const std::uint16_t index = static_cast<std::uint16_t>(buses_.size());
  buses_.push_back(bus);
  bus_lookup_.emplace(bus, index);
  return index;
}

std::uint32_t ColumnarWriter::key_index(std::uint16_t bus,
                                        std::int64_t message_id) {
  const auto [it, inserted] = key_lookup_.try_emplace(
      {bus, message_id}, static_cast<std::uint32_t>(key_dict_.size()));
  if (inserted) {
    if (key_dict_.size() >= 0xFFFFFFFFULL) {
      IVT_THROW(errors::Category::Format, "ivc: too many distinct (bus, id) keys");
    }
    key_dict_.push_back(KeyDictEntry{bus, message_id});
  }
  return it->second;
}

void ColumnarWriter::write(const tracefile::TraceRecord& record) {
  if (finished_) IVT_THROW(errors::Category::Internal, "ivc: write after finish");
  if (record.payload.size() > 0xFFFF) {
    IVT_THROW(errors::Category::Format, "ivc: payload too long");
  }
  const std::uint16_t bus = bus_index(record.bus);
  t_ns_.push_back(record.t_ns);
  bus_idx_.push_back(bus);
  protocol_.push_back(static_cast<std::uint64_t>(record.protocol));
  message_id_.push_back(record.message_id);
  flags_.push_back(record.flags);
  payload_len_.push_back(record.payload.size());
  key_idx_.push_back(key_index(bus, record.message_id));
  payload_bytes_.append(
      reinterpret_cast<const char*>(record.payload.data()),
      record.payload.size());
  ++written_;
  if (t_ns_.size() >= options_.chunk_rows) flush_chunk();
}

void ColumnarWriter::flush_chunk() {
  if (t_ns_.empty()) return;

  ChunkInfo info;
  info.offset = offset_;
  info.row_count = static_cast<std::uint32_t>(t_ns_.size());
  info.min_t_ns = info.max_t_ns = t_ns_.front();
  info.min_message_id = info.max_message_id = message_id_.front();
  for (std::size_t i = 0; i < t_ns_.size(); ++i) {
    info.min_t_ns = std::min(info.min_t_ns, t_ns_[i]);
    info.max_t_ns = std::max(info.max_t_ns, t_ns_[i]);
    info.min_message_id = std::min(info.min_message_id, message_id_[i]);
    info.max_message_id = std::max(info.max_message_id, message_id_[i]);
    info.set_bus(static_cast<std::uint16_t>(bus_idx_[i]));
  }

  put_le<std::uint32_t>(out_, offset_, info.row_count);
  std::string block;
  encode_delta(t_ns_, block);
  put_block(out_, offset_, block);
  block.clear();
  encode_rle(bus_idx_, block);
  put_block(out_, offset_, block);
  block.clear();
  encode_rle(protocol_, block);
  put_block(out_, offset_, block);
  block.clear();
  encode_svarints(message_id_, block);
  put_block(out_, offset_, block);
  block.clear();
  encode_rle(flags_, block);
  put_block(out_, offset_, block);
  block.clear();
  for (const std::uint64_t len : payload_len_) put_uvarint(block, len);
  put_block(out_, offset_, block);
  block.clear();
  put_le<std::uint32_t>(out_, offset_,
                        static_cast<std::uint32_t>(payload_bytes_.size()));
  put_bytes(out_, offset_, payload_bytes_.data(), payload_bytes_.size());
  encode_rle(key_idx_, block);
  put_block(out_, offset_, block);

  info.encoded_bytes = offset_ - info.offset;
  chunks_.push_back(std::move(info));

  t_ns_.clear();
  bus_idx_.clear();
  protocol_.clear();
  message_id_.clear();
  flags_.clear();
  payload_len_.clear();
  key_idx_.clear();
  payload_bytes_.clear();
}

void ColumnarWriter::finish() {
  if (finished_) IVT_THROW(errors::Category::Internal, "ivc: finish called twice");
  flush_chunk();
  finished_ = true;

  const std::uint64_t footer_offset = offset_;
  put_le<std::uint16_t>(out_, offset_,
                        static_cast<std::uint16_t>(buses_.size()));
  for (const std::string& bus : buses_) {
    put_le<std::uint8_t>(out_, offset_,
                         static_cast<std::uint8_t>(bus.size()));
    put_bytes(out_, offset_, bus.data(), bus.size());
  }
  put_le<std::uint32_t>(out_, offset_,
                        static_cast<std::uint32_t>(key_dict_.size()));
  for (const KeyDictEntry& key : key_dict_) {
    put_le<std::uint16_t>(out_, offset_, key.bus_index);
    put_le<std::int64_t>(out_, offset_, key.message_id);
  }
  put_le<std::uint32_t>(out_, offset_,
                        static_cast<std::uint32_t>(chunks_.size()));
  for (const ChunkInfo& c : chunks_) {
    put_le<std::uint64_t>(out_, offset_, c.offset);
    put_le<std::uint64_t>(out_, offset_, c.encoded_bytes);
    put_le<std::uint32_t>(out_, offset_, c.row_count);
    put_le<std::int64_t>(out_, offset_, c.min_t_ns);
    put_le<std::int64_t>(out_, offset_, c.max_t_ns);
    put_le<std::int64_t>(out_, offset_, c.min_message_id);
    put_le<std::int64_t>(out_, offset_, c.max_message_id);
    put_le<std::uint16_t>(out_, offset_,
                          static_cast<std::uint16_t>(c.bus_bits.size()));
    for (const std::uint64_t word : c.bus_bits) {
      put_le<std::uint64_t>(out_, offset_, word);
    }
  }
  put_le<std::uint64_t>(out_, offset_, footer_offset);
  put_bytes(out_, offset_, kFooterMagic, sizeof(kFooterMagic));
  out_.flush();
  if (!out_) IVT_THROW(errors::Category::Io, "ivc: write failed");
}

namespace {

void write_trace(const tracefile::Trace& trace, std::ostream& out,
                 ColumnarWriterOptions options) {
  ColumnarWriter writer(out, trace.vehicle, trace.journey,
                        trace.start_unix_ns, options);
  for (const tracefile::TraceRecord& rec : trace.records) writer.write(rec);
  writer.finish();
}

/// The .ivt -> .ivc record loop; fills the records and chunks of the
/// stats. Under Skip/Quarantine a corrupt record ends the stream: the
/// loss goes to `failures` and the records before it stay packed.
PackStats pack_records(std::istream& in, std::ostream& out,
                       ColumnarWriterOptions options,
                       errors::ErrorPolicy on_error,
                       errors::FailureLog* failures,
                       const std::string& ivt_path) {
  // Header corruption is never tolerated: without it there is no trace.
  tracefile::TraceReader reader(in);
  ColumnarWriter writer(out, reader.vehicle(), reader.journey(),
                        reader.start_unix_ns(), options);
  tracefile::TraceRecord rec;
  for (;;) {
    try {
      if (!reader.next(rec)) break;
    } catch (const errors::Error& e) {
      if (on_error == errors::ErrorPolicy::Fail ||
          e.severity() == errors::Severity::Fatal) {
        throw;
      }
      OBS_COUNT("tracefile.tails_dropped", 1);
      if (failures != nullptr) {
        failures->add("tracefile.read_record",
                      "record stream tail after record " +
                          std::to_string(writer.records_written()) + " of " +
                          ivt_path,
                      e);
      }
      break;
    }
    writer.write(rec);
  }
  writer.finish();
  PackStats stats;
  stats.records = writer.records_written();
  stats.chunks = writer.chunks_written();
  return stats;
}

}  // namespace

void save_trace_columnar(const tracefile::Trace& trace,
                         const std::string& path,
                         ColumnarWriterOptions options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) IVT_THROW(errors::Category::Io, "cannot open for write: " + path);
  write_trace(trace, out, options);
  if (!out) IVT_THROW(errors::Category::Io, "write failed: " + path);
}

std::string pack_trace(const tracefile::Trace& trace,
                       ColumnarWriterOptions options) {
  std::ostringstream out;
  write_trace(trace, out, options);
  return std::move(out).str();
}

ColumnarReader open_trace(const tracefile::Trace& trace,
                          ColumnarWriterOptions options) {
  return ColumnarReader::from_buffer(pack_trace(trace, options));
}

PackStats pack_trace_file(const std::string& ivt_path,
                          const std::string& ivc_path,
                          ColumnarWriterOptions options) {
  std::ifstream in(ivt_path, std::ios::binary);
  if (!in) IVT_THROW(errors::Category::Io, "cannot open for read: " + ivt_path);
  std::ofstream out(ivc_path, std::ios::binary);
  if (!out) IVT_THROW(errors::Category::Io, "cannot open for write: " + ivc_path);

  PackStats stats = pack_records(in, out, options, errors::ErrorPolicy::Fail,
                                 nullptr, ivt_path);
  if (!out) IVT_THROW(errors::Category::Io, "write failed: " + ivc_path);
  out.close();

  std::error_code ec;
  stats.input_bytes = std::filesystem::file_size(ivt_path, ec);
  if (ec) stats.input_bytes = 0;
  stats.output_bytes = std::filesystem::file_size(ivc_path, ec);
  if (ec) stats.output_bytes = 0;
  return stats;
}

ColumnarReader open_trace(const std::string& path,
                          errors::ErrorPolicy on_error,
                          errors::FailureLog* failures) {
  if (is_columnar_trace_file(path)) return ColumnarReader(path);
  OBS_SPAN_V(span, "tracefile.load");
  std::ifstream in(path, std::ios::binary);
  if (!in) IVT_THROW(errors::Category::Io, "cannot open for read: " + path);
  std::ostringstream out;
  const PackStats stats = errors::with_context("loading " + path, [&] {
    return pack_records(in, out, {}, on_error, failures, path);
  });
  span.set_rows(stats.records);
  OBS_COUNT("tracefile.records_read", stats.records);
  return ColumnarReader::from_buffer(std::move(out).str());
}

}  // namespace ivt::colstore
