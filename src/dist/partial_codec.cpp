#include "dist/partial_codec.hpp"

#include <cstring>
#include <type_traits>

#include "errors/error.hpp"

namespace ivt::dist {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out.append(buf, sizeof(v));
}

void put_u64(std::string& out, std::uint64_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out.append(buf, sizeof(v));
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

template <typename T>
void put_array(std::string& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (v.empty()) return;  // data() may be null
  out.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

/// Bounds-checked forward reader over the payload bytes.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof(v));
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof(v));
    return v;
  }

  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(bytes_.data() + pos_, n);
    pos_ += n;
    return s;
  }

  template <typename T>
  std::vector<T> array(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    need(n * sizeof(T));
    std::vector<T> v(n);
    if (n == 0) return v;  // v.data() is null: no memcpy
    std::memcpy(v.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  void need(std::size_t n) const {
    if (bytes_.size() - pos_ < n) {
      IVT_THROW(errors::Category::Decode,
                "dist: truncated partial payload (need " +
                    std::to_string(n) + " bytes, have " +
                    std::to_string(bytes_.size() - pos_) + ")");
    }
  }

  void raw(void* dst, std::size_t n) {
    need(n);
    std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
  }

  const std::string& bytes_;
  std::size_t pos_ = 0;
};

/// Reject an untrusted element/segment count that could not possibly fit
/// in the payload BEFORE reserving for it — a hostile count must become
/// a typed Decode error, never std::bad_alloc (every encoded unit is
/// at least one byte, so `count > payload bytes` is always corrupt).
void check_count(std::uint64_t count, std::size_t payload_size,
                 const char* what) {
  if (count > payload_size) {
    IVT_THROW(errors::Category::Decode,
              std::string("dist: ") + what + " count exceeds payload size");
  }
}

void encode_segments(std::string& out,
                     const std::vector<core::MorselPartial>& partials) {
  std::size_t count = 0;
  for (const core::MorselPartial& p : partials) count += p.segments.size();

  put_u32(out, static_cast<std::uint32_t>(count));
  for (const core::MorselPartial& p : partials) {
    for (const core::KeySegment& seg : p.segments) {
      put_u64(out, static_cast<std::uint64_t>(p.morsel));
      put_u64(out, static_cast<std::uint64_t>(seg.first_row));
      put_str(out, seg.key);
      const core::SequenceData& d = seg.data;
      put_str(out, d.s_id);
      put_str(out, d.bus);
      put_u64(out, static_cast<std::uint64_t>(d.t.size()));
      put_array(out, d.t);
      put_array(out, d.v_num);
      put_array(out, d.has_num);
      put_array(out, d.has_str);
      for (const std::string& s : d.v_str) put_str(out, s);
    }
  }
}

std::vector<WireSegment> decode_segments(Reader& in,
                                         std::size_t payload_size) {
  const std::uint32_t count = in.u32();
  check_count(count, payload_size, "partial segment");
  std::vector<WireSegment> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    WireSegment seg;
    seg.morsel = in.u64();
    seg.first_row = in.u64();
    seg.key = in.str();
    core::SequenceData& d = seg.data;
    d.s_id = in.str();
    d.bus = in.str();
    const std::uint64_t n64 = in.u64();
    check_count(n64, payload_size, "partial element");
    const auto n = static_cast<std::size_t>(n64);
    d.t = in.array<std::int64_t>(n);
    d.v_num = in.array<double>(n);
    d.has_num = in.array<std::uint8_t>(n);
    d.has_str = in.array<std::uint8_t>(n);
    d.v_str.reserve(n);
    for (std::size_t k = 0; k < n; ++k) d.v_str.push_back(in.str());
    out.push_back(std::move(seg));
  }
  return out;
}

}  // namespace

std::string encode_partials(
    const std::vector<core::MorselPartial>& partials) {
  std::string out;
  encode_segments(out, partials);
  return out;
}

std::vector<WireSegment> decode_partials(const std::string& payload) {
  Reader in(payload);
  std::vector<WireSegment> out = decode_segments(in, payload.size());
  if (!in.exhausted()) {
    IVT_THROW(errors::Category::Decode,
              "dist: trailing bytes after last partial segment");
  }
  return out;
}

std::string encode_range_payload(
    const std::vector<core::MorselPartial>& partials,
    const std::vector<WireKsBlock>& ks_blocks) {
  std::string out;
  encode_segments(out, partials);
  put_u32(out, static_cast<std::uint32_t>(ks_blocks.size()));
  for (const WireKsBlock& b : ks_blocks) {
    put_u64(out, b.morsel);
    put_u64(out, static_cast<std::uint64_t>(b.t.size()));
    put_array(out, b.t);
    put_array(out, b.v_num);
    put_array(out, b.has_num);
    put_array(out, b.has_str);
    for (const std::string& s : b.s_id) put_str(out, s);
    for (const std::string& s : b.v_str) put_str(out, s);
    for (const std::string& s : b.b_id) put_str(out, s);
  }
  return out;
}

RangePayload decode_range_payload(const std::string& payload) {
  Reader in(payload);
  RangePayload out;
  out.segments = decode_segments(in, payload.size());
  const std::uint32_t blocks = in.u32();
  check_count(blocks, payload.size(), "K_s block");
  out.ks_blocks.reserve(blocks);
  for (std::uint32_t i = 0; i < blocks; ++i) {
    WireKsBlock b;
    b.morsel = in.u64();
    const std::uint64_t n64 = in.u64();
    check_count(n64, payload.size(), "K_s row");
    const auto n = static_cast<std::size_t>(n64);
    b.t = in.array<std::int64_t>(n);
    b.v_num = in.array<double>(n);
    b.has_num = in.array<std::uint8_t>(n);
    b.has_str = in.array<std::uint8_t>(n);
    b.s_id.reserve(n);
    for (std::size_t k = 0; k < n; ++k) b.s_id.push_back(in.str());
    b.v_str.reserve(n);
    for (std::size_t k = 0; k < n; ++k) b.v_str.push_back(in.str());
    b.b_id.reserve(n);
    for (std::size_t k = 0; k < n; ++k) b.b_id.push_back(in.str());
    out.ks_blocks.push_back(std::move(b));
  }
  if (!in.exhausted()) {
    IVT_THROW(errors::Category::Decode,
              "dist: trailing bytes after last K_s block");
  }
  return out;
}

}  // namespace ivt::dist
