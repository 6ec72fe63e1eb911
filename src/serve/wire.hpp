// Length-prefixed binary framing for the ivt-serve protocol.
//
// One frame on the wire (all integers little-endian):
//
//   offset  size  field
//   0       4     magic        "IVQ1" (0x31515649)
//   4       4     json_len     length of the JSON body in bytes
//   8       4     payload_len  length of the raw payload in bytes
//   12      *     json         UTF-8 JSON document (request or response
//                              header; see serve/query_engine.hpp)
//   12+j    *     payload      raw bytes (CSV table results); empty for
//                              control ops
//
// Both directions use the same frame. Limits (kMaxJsonBytes,
// kMaxPayloadBytes) are enforced on read so a corrupt or hostile peer
// cannot make the daemon allocate unbounded memory; violations throw
// errors::Error(Format). Transport failures (EOF mid-frame, socket
// errors) throw errors::Error(Io). A clean EOF at a frame boundary is
// not an error — read_frame returns false so connection loops can
// terminate quietly.
#pragma once

#include <cstdint>
#include <string>

namespace ivt::serve {

inline constexpr std::uint32_t kFrameMagic = 0x31515649;  // "IVQ1"
inline constexpr std::size_t kMaxJsonBytes = 1U << 20U;       // 1 MiB
inline constexpr std::size_t kMaxPayloadBytes = 1U << 28U;    // 256 MiB

struct Frame {
  std::string json;
  std::string payload;
};

/// Read one frame from `fd`. Returns false on clean EOF before the first
/// header byte; throws errors::Error(Io) on transport failure or
/// truncation mid-frame, errors::Error(Format) on bad magic or a length
/// over the limits.
bool read_frame(int fd, Frame& out);

/// Write one frame to `fd` with one sendmsg() (more only when the kernel
/// takes it in parts). Throws errors::Error(Format) when a body exceeds
/// its limit, errors::Error(Timeout) when SO_SNDTIMEO expires and
/// errors::Error(Io) when the peer is gone.
void write_frame(int fd, const Frame& frame);

/// Turn off Nagle's algorithm on a connected TCP socket, once per
/// connection: every frame is one request or one response, so holding
/// its last segment back for an ACK only adds latency.
void set_no_delay(int fd);

}  // namespace ivt::serve
