#include "serve/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "errors/error.hpp"

namespace ivt::serve {

std::string ClientResponse::error_category() const {
  if (const json::Value* e = body.find("error")) {
    return e->get_string("category", "");
  }
  return "";
}

std::string ClientResponse::error_message() const {
  if (const json::Value* e = body.find("error")) {
    return e->get_string("message", "");
  }
  return "";
}

bool ClientResponse::retryable() const {
  if (const json::Value* e = body.find("error")) {
    return e->get_bool("retryable", false);
  }
  return false;
}

namespace {

/// connect() bounded by poll(): the socket goes non-blocking for the
/// handshake, then back to blocking so SO_RCVTIMEO/SO_SNDTIMEO govern
/// the per-call deadlines afterwards.
void connect_with_deadline(int fd, const sockaddr_in& addr, int timeout_ms) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    IVT_THROW(errors::Category::Io,
              std::string("query: fcntl failed: ") + std::strerror(errno));
  }
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc != 0) {
    if (errno != EINPROGRESS) {
      IVT_THROW(errors::Category::Io,
                std::string("query: connect failed: ") + std::strerror(errno));
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    int polled;
    do {
      polled = ::poll(&pfd, 1, timeout_ms);
    } while (polled < 0 && errno == EINTR);
    if (polled == 0) {
      IVT_THROW(errors::Category::Timeout,
                "query: connect timed out after " +
                    std::to_string(timeout_ms) + "ms");
    }
    if (polled < 0) {
      IVT_THROW(errors::Category::Io,
                std::string("query: poll failed: ") + std::strerror(errno));
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      IVT_THROW(errors::Category::Io,
                std::string("query: connect failed: ") +
                    std::strerror(err != 0 ? err : errno));
    }
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    IVT_THROW(errors::Category::Io,
              std::string("query: fcntl failed: ") + std::strerror(errno));
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  // Best-effort: a kernel refusing these just leaves the socket blocking.
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

Client::Client(const std::string& host, std::uint16_t port, int timeout_ms) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    IVT_THROW(errors::Category::Io,
              std::string("query: socket failed: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    IVT_THROW(errors::Category::Io, "query: bad host address '" + host + "'");
  }
  try {
    if (timeout_ms > 0) {
      connect_with_deadline(fd_, addr, timeout_ms);
    } else if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr)) != 0) {
      IVT_THROW(errors::Category::Io,
                "query: cannot connect to " + host + ":" +
                    std::to_string(port) + ": " + std::strerror(errno));
    }
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
  set_no_delay(fd_);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Frame Client::request_raw(const Frame& frame) {
  write_frame(fd_, frame);
  Frame response;
  if (!read_frame(fd_, response)) {
    IVT_THROW(errors::Category::Io,
              "query: server closed the connection before responding");
  }
  return response;
}

ClientResponse Client::request(const Frame& frame) {
  Frame response = request_raw(frame);
  ClientResponse out;
  out.body = json::parse(response.json);
  out.payload = std::move(response.payload);
  return out;
}

ClientResponse Client::request(const std::string& request_json) {
  return request(Frame{request_json, {}});
}

void add_trace_context(json::Object& request, const obs::TraceContext& ctx) {
  if (!ctx.valid()) return;
  json::Object tc;
  tc.add("trace_id", obs::trace_id_hex(ctx.trace_id))
      .add("parent_span_id", ctx.span_id);
  request.raw("trace_ctx", tc.str());
}

}  // namespace ivt::serve
