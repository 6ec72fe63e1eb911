#include "serve/wire.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "errors/error.hpp"

namespace ivt::serve {
namespace {

#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;  // EPIPE instead of SIGPIPE
#else
constexpr int kSendFlags = 0;
#endif

/// Read exactly `n` bytes. Returns the byte count actually read, which is
/// < n only on EOF; throws errors::Error(Io) on a socket error.
std::size_t read_exact(int fd, char* buf, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got = ::read(fd, buf + done, n - done);
    if (got == 0) break;  // EOF
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expired: the peer stalled, not a broken socket.
        IVT_THROW(errors::Category::Timeout,
                  "serve: socket read timed out waiting for peer");
      }
      IVT_THROW(errors::Category::Io,
                std::string("serve: socket read failed: ") +
                    std::strerror(errno));
    }
    done += static_cast<std::size_t>(got);
  }
  return done;
}

/// Send the `count` buffers of `iov` with as few sendmsg() calls as the
/// kernel allows (one, unless a write comes up short); `iov` is consumed.
void send_all(int fd, iovec* iov, std::size_t count) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t put = ::sendmsg(fd, &msg, kSendFlags);
    if (put < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        IVT_THROW(errors::Category::Timeout,
                  "serve: socket write timed out waiting for peer");
      }
      IVT_THROW(errors::Category::Io,
                std::string("serve: socket write failed: ") +
                    std::strerror(errno));
    }
    // Skip what went out: whole buffers, then a prefix of the next one.
    auto done = static_cast<std::size_t>(put);
    while (count > 0 && done >= iov->iov_len) {
      done -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + done;
      iov->iov_len -= done;
    }
  }
}

std::uint32_t load_u32le(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8U) |
         (static_cast<std::uint32_t>(b[2]) << 16U) |
         (static_cast<std::uint32_t>(b[3]) << 24U);
}

void store_u32le(char* p, std::uint32_t v) {
  auto* b = reinterpret_cast<unsigned char*>(p);
  b[0] = static_cast<unsigned char>(v & 0xFFU);
  b[1] = static_cast<unsigned char>((v >> 8U) & 0xFFU);
  b[2] = static_cast<unsigned char>((v >> 16U) & 0xFFU);
  b[3] = static_cast<unsigned char>((v >> 24U) & 0xFFU);
}

}  // namespace

bool read_frame(int fd, Frame& out) {
  char header[12];
  const std::size_t got = read_exact(fd, header, sizeof(header));
  if (got == 0) return false;  // clean EOF at a frame boundary
  if (got < sizeof(header)) {
    IVT_THROW(errors::Category::Io, "serve: connection closed mid-header");
  }
  const std::uint32_t magic = load_u32le(header);
  if (magic != kFrameMagic) {
    IVT_THROW(errors::Category::Format,
              "serve: bad frame magic 0x" + [&] {
                char buf[16];
                std::snprintf(buf, sizeof(buf), "%08x", magic);
                return std::string(buf);
              }());
  }
  const std::uint32_t json_len = load_u32le(header + 4);
  const std::uint32_t payload_len = load_u32le(header + 8);
  if (json_len > kMaxJsonBytes) {
    IVT_THROW(errors::Category::Format,
              "serve: frame JSON body of " + std::to_string(json_len) +
                  " bytes exceeds limit of " + std::to_string(kMaxJsonBytes));
  }
  if (payload_len > kMaxPayloadBytes) {
    IVT_THROW(errors::Category::Format,
              "serve: frame payload of " + std::to_string(payload_len) +
                  " bytes exceeds limit of " +
                  std::to_string(kMaxPayloadBytes));
  }
  out.json.resize(json_len);
  if (json_len > 0 && read_exact(fd, out.json.data(), json_len) < json_len) {
    IVT_THROW(errors::Category::Io, "serve: connection closed mid-frame");
  }
  out.payload.resize(payload_len);
  if (payload_len > 0 &&
      read_exact(fd, out.payload.data(), payload_len) < payload_len) {
    IVT_THROW(errors::Category::Io, "serve: connection closed mid-frame");
  }
  return true;
}

void write_frame(int fd, const Frame& frame) {
  if (frame.json.size() > kMaxJsonBytes) {
    IVT_THROW(errors::Category::Format,
              "serve: refusing to send JSON body of " +
                  std::to_string(frame.json.size()) + " bytes (limit " +
                  std::to_string(kMaxJsonBytes) + ")");
  }
  if (frame.payload.size() > kMaxPayloadBytes) {
    IVT_THROW(errors::Category::Format,
              "serve: refusing to send payload of " +
                  std::to_string(frame.payload.size()) + " bytes (limit " +
                  std::to_string(kMaxPayloadBytes) + ")");
  }
  char header[12];
  store_u32le(header, kFrameMagic);
  store_u32le(header + 4, static_cast<std::uint32_t>(frame.json.size()));
  store_u32le(header + 8, static_cast<std::uint32_t>(frame.payload.size()));
  // One write per frame: a header sent apart from its body would wait
  // for the peer's delayed ACK under Nagle's algorithm.
  iovec iov[] = {
      {header, sizeof(header)},
      {const_cast<char*>(frame.json.data()), frame.json.size()},
      {const_cast<char*>(frame.payload.data()), frame.payload.size()},
  };
  send_all(fd, iov, std::size(iov));
}

void set_no_delay(int fd) {
  const int one = 1;
  // Best-effort: without it frames are still correct, only slower.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace ivt::serve
