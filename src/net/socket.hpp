// UNIX-domain stream sockets with poll-based readiness and timed I/O.
//
// The transport layer under the ewcd daemon (paper Section IV deploys the
// consolidation backend as a daemon reached over a UNIX-socket connection).
// Everything here deals in *real* wall-clock deadlines — the simulated clock
// lives above this layer. The API is non-throwing: operations report
// IoStatus plus an error string, because a remote peer dying mid-write is an
// expected event for a server, not an exception.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/units.hpp"

namespace ewc::net {

/// A real-time limit for one I/O operation. Deadline::never() blocks
/// indefinitely; Deadline::after(d) expires d (real seconds) from now.
class Deadline {
 public:
  static Deadline never() { return Deadline{}; }
  static Deadline after(common::Duration real_time);

  bool is_never() const { return !at_.has_value(); }
  bool expired() const;
  /// Remaining time as a poll(2) timeout: -1 = infinite, 0 = expired.
  int poll_timeout_ms() const;

 private:
  std::optional<std::chrono::steady_clock::time_point> at_;
};

enum class IoStatus {
  kOk,
  kEof,        ///< peer closed cleanly (only at an operation boundary)
  kTimeout,    ///< deadline expired before the operation finished
  kError,      ///< errno-level failure, including EOF mid-message
  kTransient,  ///< resource pressure (EMFILE/ENFILE/ENOBUFS); retry after
               ///< backing off — the condition clears when fds free up
};

const char* io_status_name(IoStatus s);

/// RAII wrapper over one connected stream-socket fd. Move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  void close();
  /// shutdown(2) both directions: wakes any thread blocked in recv on this
  /// socket (they observe EOF) without racing the fd's lifetime.
  void shutdown_rw();

  /// Send exactly `n` bytes before the deadline. Partial progress on
  /// timeout leaves the stream unusable for framing; callers treat kTimeout
  /// like kError and drop the connection.
  IoStatus send_exact(const void* data, std::size_t n, const Deadline& deadline,
                      std::string* error);
  /// Receive exactly `n` bytes. kEof only if the peer closed before the
  /// first byte; EOF mid-buffer is kError ("unexpected EOF").
  IoStatus recv_exact(void* data, std::size_t n, const Deadline& deadline,
                      std::string* error);

  /// Wait (up to the deadline) until readable, then one recv of at most
  /// `cap` bytes: *got > 0 with kOk, or kEof when the peer closed. Fault
  /// site net.recv, once per call.
  IoStatus recv_some(void* data, std::size_t cap, std::size_t* got,
                     const Deadline& deadline, std::string* error);
  /// One send(2) that never waits: *sent is how much went out, 0 when the
  /// socket buffer is full. kError when the peer is gone. No fault site:
  /// callers that honour an armed injector use send_exact instead.
  IoStatus send_some(const void* data, std::size_t n, std::size_t* sent,
                     std::string* error);

  /// Poll for readability up to the deadline.
  IoStatus wait_readable(const Deadline& deadline, std::string* error);

 private:
  /// The net.recv fault site: false (with *error) for an injected failure.
  bool recv_fault(std::string* error);

  int fd_ = -1;
};

/// Connect to a UNIX-domain stream socket at `path`.
std::optional<Socket> connect_unix(const std::string& path,
                                   const Deadline& deadline,
                                   std::string* error);

/// Connect to a TCP endpoint. Resolves `host` (numeric or name), sets
/// TCP_NODELAY (the protocol is small request/response frames), and retries
/// connection-refused until the deadline, mirroring connect_unix. Fault
/// site: net.tcp_connect (refusal / stall).
std::optional<Socket> connect_tcp(const std::string& host, std::uint16_t port,
                                  const Deadline& deadline,
                                  std::string* error);

/// A bound, listening stream socket — UNIX-domain (unlinks its path on
/// destruction) or TCP.
class Listener {
 public:
  static std::optional<Listener> bind_unix(const std::string& path,
                                           int backlog, std::string* error);
  /// Bind a TCP listener. port 0 picks an ephemeral port; port() reports
  /// the actual one after binding. SO_REUSEADDR is set so a restarted
  /// daemon can reclaim its address without waiting out TIME_WAIT.
  static std::optional<Listener> bind_tcp(const std::string& host,
                                          std::uint16_t port, int backlog,
                                          std::string* error);
  ~Listener();

  Listener(Listener&& o) noexcept;
  Listener& operator=(Listener&& o) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Accept one connection; nullopt on timeout or error (status tells
  /// which). Process/system fd exhaustion (EMFILE/ENFILE) and transient
  /// kernel memory pressure (ENOBUFS) report kTransient rather than kError:
  /// the listener itself is healthy and accept will succeed again once
  /// resources free up, so callers should back off and retry instead of
  /// tearing down the accept loop.
  std::optional<Socket> accept(const Deadline& deadline, IoStatus* status,
                               std::string* error);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  const std::string& path() const { return path_; }
  /// Actual bound port for TCP listeners (resolves port 0); 0 for UNIX.
  std::uint16_t port() const { return port_; }
  /// Canonical endpoint string ("unix:/path" or "tcp:host:port").
  const std::string& name() const { return name_; }
  void close();

 private:
  Listener() = default;
  int fd_ = -1;
  std::string path_;
  std::uint16_t port_ = 0;
  std::string name_;
};

}  // namespace ewc::net
