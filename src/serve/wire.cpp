#include "serve/wire.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <thread>
#include <utility>
#include <vector>

#include "faultfx/faultfx.hpp"
#include "obs/obs.hpp"
#include "serve/json.hpp"

namespace ivt::serve {
namespace {

constexpr int kListenBacklog = 64;

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

/// The wire name and retryability the daemons report for each category.
/// This is a public protocol contract, pinned independently of
/// errors::to_string / errors::is_transient so an internal rename can
/// never silently change what clients see. The switch is an
/// `error-table` anchor in tools/ivt-lint.conf: ivt-analyze fails when
/// any thrown errors::Category is missing from it.
WireError wire_category(errors::Category category) {
  switch (category) {
    case errors::Category::Io: return {"io", false};
    case errors::Category::Format: return {"format", false};
    case errors::Category::Decode: return {"decode", false};
    case errors::Category::Spec: return {"spec", false};
    case errors::Category::Resource: return {"resource", true};
    case errors::Category::Overloaded: return {"overloaded", true};
    case errors::Category::Timeout: return {"timeout", true};
    case errors::Category::Internal: return {"internal", false};
  }
  return {"internal", false};
}

std::string render_error(errors::Category category,
                         const std::string& message) {
  const WireError wire = wire_category(category);
  return json::Object{}
      .add("category", std::string(wire.category))
      .add("retryable", wire.retryable)
      .add("message", message)
      .str();
}

FrameServer::FrameServer(std::string host, std::uint16_t port,
                         obs::Counter& connections, FrameHandler handler)
    : host_(std::move(host)),
      port_(port),
      connections_total_(connections),
      handler_(std::move(handler)) {}

FrameServer::~FrameServer() { stop(); }

void FrameServer::start() {
  const std::string address = host_ + ":" + std::to_string(port_);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    IVT_THROW(errors::Category::Io,
              std::string("socket failed: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    IVT_THROW(errors::Category::Io, "bad listen address '" + host_ + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    IVT_THROW(errors::Category::Io,
              "cannot bind " + address + ": " + std::strerror(errno));
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    IVT_THROW(errors::Category::Io,
              "listen failed on " + address + ": " + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void FrameServer::stop() {
  if (stopping_.exchange(true)) return;
  if (listen_fd_ >= 0) {
    // shutdown() unblocks the accept loop even on platforms where a
    // plain close() leaves it sleeping.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> live;
  std::thread ended;
  {
    const support::MutexLock lock(mutex_);
    for (auto& [id, conn] : connections_) {
      // Unblock the reader; a request being handled finishes and writes
      // its answer before the reader notices the shutdown and exits.
      ::shutdown(conn.fd, SHUT_RD);
      live.push_back(std::move(conn.thread));
    }
    ended = std::move(ended_);
  }
  for (std::thread& t : live) t.join();
  if (ended.joinable()) ended.join();
}

void FrameServer::accept_loop() {
  bool exhausted = false;  // in a run of resource-exhaustion failures
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      const int err = errno;
      if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM) {
        // Out of descriptors or memory: the listener is fine, and a
        // connection that ends frees what the next accept needs. Back off
        // briefly (the loop re-checks stopping_) and keep accepting; the
        // kernel holds pending handshakes in the backlog meanwhile.
        OBS_COUNT("serve.accept_exhausted", 1);
        if (!exhausted) {
          std::fprintf(stderr, "ivt: accept on %s:%u failed: %s; retrying\n",
                       host_.c_str(), static_cast<unsigned>(port_),
                       std::strerror(err));
        }
        exhausted = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      std::fprintf(stderr, "ivt: accept on %s:%u failed: %s\n",
                   host_.c_str(), static_cast<unsigned>(port_),
                   std::strerror(err));
      return;
    }
    exhausted = false;
    try {
      // Models a failure while setting up the accepted connection (fd
      // limit races, early peer reset). The daemon must shrug it off:
      // drop this connection, keep accepting.
      FAULT_POINT("serve.accept");
    } catch (const errors::Error& e) {
      OBS_COUNT("serve.accept_faults", 1);
      std::fprintf(stderr, "ivt: connection setup failed: %s\n",
                   e.describe().c_str());
      ::close(fd);
      continue;
    }
    connections_total_.add(1);
    set_no_delay(fd);
    const support::MutexLock lock(mutex_);
    const std::uint64_t id = next_connection_id_++;
    Connection& conn = connections_[id];
    conn.fd = fd;
    // The thread cannot reach its entry before this lock is released,
    // so it always finds its handle in place.
    conn.thread = std::thread([this, fd, id] {
      serve_connection(fd);
      end_connection(id);
    });
  }
}

void FrameServer::serve_connection(int fd) {
  Frame request;
  while (!stopping_.load(std::memory_order_acquire)) {
    try {
      if (!read_frame(fd, request)) return;  // clean EOF: the peer left
      write_frame(fd, handler_(request));
    } catch (const errors::Error&) {
      // Transport failure (peer vanished mid-frame, bad magic, peer gone
      // before its answer): there is no one to answer; drop the
      // connection.
      return;
    }
  }
}

void FrameServer::end_connection(std::uint64_t id) {
  std::thread previous;
  {
    const support::MutexLock lock(mutex_);
    const auto it = connections_.find(id);
    // Closed under the lock, so stop() never shuts down a descriptor
    // that has been closed and handed to someone else.
    ::close(it->second.fd);
    // A thread cannot join itself: leave this one for the next
    // connection to end, and join the one left before it. A handle
    // stop() has already taken is stop()'s to join.
    if (it->second.thread.joinable()) {
      previous = std::exchange(ended_, std::move(it->second.thread));
    }
    connections_.erase(it);
  }
  if (previous.joinable()) previous.join();
}

}  // namespace ivt::serve
