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
//
// FrameServer is the server side of the protocol that `ivt serve` and
// the dist coordinator share: the listener, the accept loop, one thread
// per connection and the teardown. Each daemon supplies only its
// per-frame handler. A failed request answers with the one error body
// both daemons use:
//
//   {"ok": false, ..., "error": {"category", "retryable", "message"}}
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>

#include "errors/error.hpp"
#include "obs/metrics.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

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

/// What an error response puts on the wire for one errors::Category.
struct WireError {
  const char* category;  ///< "category" field of the error body
  bool retryable;        ///< "retryable" field
};

/// Maps a category to its wire representation; exhaustive over
/// errors::Category (an `error-table` anchor for ivt-analyze).
WireError wire_category(errors::Category category);

/// The "error" member of a failed response: {"category", "retryable",
/// "message"}, named and flagged by wire_category.
[[nodiscard]] std::string render_error(errors::Category category,
                                       const std::string& message);

/// Answers one request frame; FrameServer writes the returned frame back
/// on the same connection. Must not throw: a handler renders every
/// failure as an error body on a healthy connection.
using FrameHandler = std::function<Frame(const Frame& request)>;

/// A TCP listener that serves IVQ1 frames. Each accepted connection gets
/// one thread, which reads a frame, passes it to the handler and writes
/// the answer, in order, until the peer leaves. Requests on one
/// connection are answered in order; concurrency comes from concurrent
/// connections. A connection's thread is joined once the connection has
/// ended: the next connection to end joins it, and stop() joins the last.
///
/// The `serve.accept` fault site sits between accept() and the
/// connection's thread: a triggered fault drops that connection, counts
/// it in `serve.accept_faults` and keeps accepting. Running out of
/// descriptors or memory in accept() (EMFILE, ENFILE, ENOBUFS, ENOMEM)
/// does not stop the listener either: each failure counts in
/// `serve.accept_exhausted`, and the loop backs off briefly and retries.
class FrameServer {
 public:
  /// Configures; start() binds. Every accepted connection adds one to
  /// `connections`, the owning daemon's counter.
  FrameServer(std::string host, std::uint16_t port,
              obs::Counter& connections, FrameHandler handler);
  /// stop()s.
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Bind, listen and start the accept thread. Throws errors::Error(Io)
  /// when the address cannot be bound or listened on (the CLI maps this
  /// to exit code 5).
  void start();

  /// The listening port once started; resolves port 0 to the one the
  /// kernel picked.
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Close the listener, then shut the read side of every connection and
  /// join its thread: a request being handled is answered first.
  /// Idempotent. Not callable from a handler, whose thread it joins.
  void stop();

 private:
  void accept_loop();
  void serve_connection(int fd);
  /// Runs last on connection `id`'s own thread.
  void end_connection(std::uint64_t id);

  std::string host_;
  std::uint16_t port_ = 0;
  obs::Counter& connections_total_;
  FrameHandler handler_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};

  support::Mutex mutex_{support::LockRank::k_serve_FrameServer_mutex_};
  struct Connection {
    int fd = -1;
    /// Moved out by stop(), which then joins it; otherwise the
    /// connection hands it to `ended_` when it ends.
    std::thread thread;
  };
  std::unordered_map<std::uint64_t, Connection> connections_
      IVT_GUARDED_BY(mutex_);
  std::uint64_t next_connection_id_ IVT_GUARDED_BY(mutex_) = 0;
  /// The thread of the connection that ended last, not yet joined.
  std::thread ended_ IVT_GUARDED_BY(mutex_);
  std::thread accept_thread_;
};

}  // namespace ivt::serve
