#include "tracefile/binary_format.hpp"

#include <cstring>
#include <fstream>

#include "protocol/bitcodec.hpp"
#include <istream>
#include <ostream>
#include <stdexcept>

#include "errors/error.hpp"
#include "faultfx/faultfx.hpp"
#include "obs/obs.hpp"

namespace ivt::tracefile {

namespace {

constexpr char kMagic[4] = {'I', 'V', 'T', 'R'};
constexpr std::uint8_t kTagBusDef = 0x01;
constexpr std::uint8_t kTagRecord = 0x02;

template <typename T>
void put(std::ostream& out, T value) {
  static_assert(std::is_integral_v<T>);
  // Little-endian byte-wise write (host independence).
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.put(static_cast<char>(
        (static_cast<std::make_unsigned_t<T>>(value) >> (8 * i)) & 0xFF));
  }
}

template <typename T>
T get(std::istream& in) {
  static_assert(std::is_integral_v<T>);
  std::make_unsigned_t<T> value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    const int c = in.get();
    if (c == EOF) IVT_THROW(errors::Category::Format, "trace file: unexpected EOF");
    value |= static_cast<std::make_unsigned_t<T>>(
                 static_cast<unsigned char>(c))
             << (8 * i);
  }
  return static_cast<T>(value);
}

void put_short_string(std::ostream& out, const std::string& s) {
  if (s.size() > 255) {
    throw std::invalid_argument("trace file: string too long: " + s);
  }
  put<std::uint8_t>(out, static_cast<std::uint8_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string get_short_string(std::istream& in) {
  const std::uint8_t len = get<std::uint8_t>(in);
  std::string s(len, '\0');
  in.read(s.data(), len);
  if (in.gcount() != len) {
    IVT_THROW(errors::Category::Format, "trace file: truncated string");
  }
  return s;
}

}  // namespace

TraceWriter::TraceWriter(std::ostream& out, const std::string& vehicle,
                         const std::string& journey,
                         std::int64_t start_unix_ns)
    : out_(out) {
  out_.write(kMagic, sizeof(kMagic));
  put<std::uint32_t>(out_, kBinaryFormatVersion);
  put_short_string(out_, vehicle);
  put_short_string(out_, journey);
  put<std::int64_t>(out_, start_unix_ns);
}

std::uint16_t TraceWriter::bus_index(const std::string& bus) {
  const auto it = bus_lookup_.find(bus);
  if (it != bus_lookup_.end()) return it->second;
  if (bus.size() > 255) {
    // Validate before interning or writing the tag byte, so a rejected
    // name leaves neither the dictionary nor the stream half-updated.
    throw std::invalid_argument("trace file: string too long: " + bus);
  }
  if (buses_.size() >= 0xFFFF) {
    IVT_THROW(errors::Category::Resource,
              "trace file: too many distinct buses");
  }
  const std::uint16_t index = static_cast<std::uint16_t>(buses_.size());
  buses_.push_back(bus);
  bus_lookup_.emplace(bus, index);
  out_.put(static_cast<char>(kTagBusDef));
  put<std::uint16_t>(out_, index);
  put_short_string(out_, bus);
  return index;
}

void TraceWriter::write(const TraceRecord& record) {
  if (record.payload.size() > 0xFFFF) {
    throw std::invalid_argument("trace file: payload too long");
  }
  const std::uint16_t bus = bus_index(record.bus);
  out_.put(static_cast<char>(kTagRecord));
  put<std::int64_t>(out_, record.t_ns);
  put<std::uint16_t>(out_, bus);
  put<std::uint8_t>(out_, static_cast<std::uint8_t>(record.protocol));
  put<std::int64_t>(out_, record.message_id);
  put<std::uint32_t>(out_, record.flags);
  put<std::uint16_t>(out_, static_cast<std::uint16_t>(record.payload.size()));
  out_.write(reinterpret_cast<const char*>(record.payload.data()),
             static_cast<std::streamsize>(record.payload.size()));
  ++written_;
  if (!out_) IVT_THROW(errors::Category::Io, "trace file: write failed");
}

TraceReader::TraceReader(std::istream& in) : in_(in) {
  char magic[4];
  in_.read(magic, sizeof(magic));
  if (in_.gcount() != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    IVT_THROW(errors::Category::Format, "trace file: bad magic");
  }
  const std::uint32_t version = get<std::uint32_t>(in_);
  if (version != kBinaryFormatVersion) {
    IVT_THROW(errors::Category::Format,
              "trace file: unsupported version " + std::to_string(version));
  }
  vehicle_ = get_short_string(in_);
  journey_ = get_short_string(in_);
  start_unix_ns_ = get<std::int64_t>(in_);
}

bool TraceReader::next(TraceRecord& record) {
  for (;;) {
    const int tag = in_.get();
    if (tag == EOF) return false;
    if (tag == kTagBusDef) {
      const std::uint16_t index = get<std::uint16_t>(in_);
      std::string name = get_short_string(in_);
      if (index != buses_.size()) {
        IVT_THROW(errors::Category::Format,
                  "trace file: bus index out of order");
      }
      buses_.push_back(std::move(name));
      continue;
    }
    if (tag != kTagRecord) {
      IVT_THROW(errors::Category::Format,
                "trace file: unknown record tag " + std::to_string(tag));
    }
    FAULT_POINT("tracefile.read_record");
    record.t_ns = get<std::int64_t>(in_);
    const std::uint16_t bus = get<std::uint16_t>(in_);
    if (bus >= buses_.size()) {
      IVT_THROW(errors::Category::Decode,
                "trace file: undefined bus index");
    }
    record.bus = buses_[bus];
    record.protocol = static_cast<protocol::Protocol>(get<std::uint8_t>(in_));
    record.message_id = get<std::int64_t>(in_);
    record.flags = get<std::uint32_t>(in_);
    const std::uint16_t len = get<std::uint16_t>(in_);
    record.payload.resize(len);
    in_.read(reinterpret_cast<char*>(record.payload.data()), len);
    if (in_.gcount() != len) {
      IVT_THROW(errors::Category::Decode, "trace file: truncated payload");
    }
    FAULT_POINT_MUTATE("tracefile.record", record.payload.data(),
                       record.payload.size());
    return true;
  }
}

void save_trace(const Trace& trace, const std::string& path) {
  OBS_SPAN_V(span, "tracefile.save");
  std::ofstream out(path, std::ios::binary);
  if (!out) IVT_THROW(errors::Category::Io, "cannot open for write: " + path);
  TraceWriter writer(out, trace.vehicle, trace.journey, trace.start_unix_ns);
  for (const TraceRecord& rec : trace.records) writer.write(rec);
  if (!out) IVT_THROW(errors::Category::Io, "write failed: " + path);
  span.set_rows(trace.records.size());
  span.set_bytes(static_cast<std::uint64_t>(out.tellp()));
  OBS_COUNT("tracefile.records_written", trace.records.size());
  OBS_COUNT("tracefile.bytes_written",
            static_cast<std::uint64_t>(out.tellp()));
}

Trace load_trace(const std::string& path) {
  OBS_SPAN_V(span, "tracefile.load");
  std::ifstream in(path, std::ios::binary);
  if (!in) IVT_THROW(errors::Category::Io, "cannot open for read: " + path);
  Trace trace = errors::with_context("loading " + path, [&in] {
    TraceReader reader(in);
    Trace out;
    out.vehicle = reader.vehicle();
    out.journey = reader.journey();
    out.start_unix_ns = reader.start_unix_ns();
    TraceRecord rec;
    while (reader.next(rec)) out.records.push_back(rec);
    return out;
  });
  span.set_rows(trace.records.size());
  OBS_COUNT("tracefile.records_read", trace.records.size());
  return trace;
}

void export_asc(const Trace& trace, std::ostream& out) {
  out << "date ns_epoch " << trace.start_unix_ns << " vehicle "
      << trace.vehicle << " journey " << trace.journey << "\n";
  out << "base hex  timestamps absolute\n";
  for (const TraceRecord& rec : trace.records) {
    char tsbuf[32];
    std::snprintf(tsbuf, sizeof(tsbuf), "%.6f",
                  static_cast<double>(rec.t_ns) / 1e9);
    out << tsbuf << ' ' << rec.bus << ' '
        << protocol::to_string(rec.protocol) << ' ' << std::hex
        << rec.message_id << std::dec << " d "
        << rec.payload.size() << ' ' << protocol::to_hex(rec.payload);
    if ((rec.flags & TraceRecord::kFlagErrorFrame) != 0) out << " ERROR";
    out << "\n";
  }
}

}  // namespace ivt::tracefile
