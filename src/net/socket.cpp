#include "net/socket.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "fault/injector.hpp"

namespace ewc::net {

namespace {

void set_error(std::string* error, const char* what) {
  if (error) *error = std::string(what) + ": " + std::strerror(errno);
}

/// Fill a sockaddr_un; sun_path is a fixed 108-byte array, so long paths
/// must be rejected instead of silently truncated.
bool fill_addr(const std::string& path, sockaddr_un* addr,
               std::string* error) {
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
    if (error) {
      *error = "socket path must be 1.." +
               std::to_string(sizeof(addr->sun_path) - 1) +
               " characters, got " + std::to_string(path.size());
    }
    return false;
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

/// Poll one fd for `events` up to the deadline.
IoStatus poll_for(int fd, short events, const Deadline& deadline,
                  std::string* error) {
  for (;;) {
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, deadline.poll_timeout_ms());
    if (rc > 0) return IoStatus::kOk;
    if (rc == 0) {
      if (error) *error = "timed out";
      return IoStatus::kTimeout;
    }
    if (errno == EINTR) continue;
    set_error(error, "poll");
    return IoStatus::kError;
  }
}

}  // namespace

Deadline Deadline::after(common::Duration real_time) {
  Deadline d;
  if (real_time.is_finite()) {
    d.at_ = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(real_time.seconds()));
  }
  return d;
}

bool Deadline::expired() const {
  return at_.has_value() && std::chrono::steady_clock::now() >= *at_;
}

int Deadline::poll_timeout_ms() const {
  if (!at_.has_value()) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      *at_ - std::chrono::steady_clock::now());
  if (left.count() <= 0) return 0;
  if (left.count() > 1000 * 3600) return 1000 * 3600;
  return static_cast<int>(left.count());
}

const char* io_status_name(IoStatus s) {
  switch (s) {
    case IoStatus::kOk: return "ok";
    case IoStatus::kEof: return "eof";
    case IoStatus::kTimeout: return "timeout";
    case IoStatus::kError: return "error";
    case IoStatus::kTransient: return "transient";
  }
  return "?";
}

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_rw() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

IoStatus Socket::send_exact(const void* data, std::size_t n,
                            const Deadline& deadline, std::string* error) {
  const auto* p = static_cast<const std::byte*>(data);
  // A scripted short_write caps every send(2) chunk, forcing the loop to
  // split even a 12-byte frame header across calls — the torn-write path a
  // cooperative kernel almost never takes on a UNIX socket.
  std::size_t chunk_cap = n;
  if (auto a = fault::hit("net.send")) {
    switch (a.kind) {
      case fault::ActionKind::kFail:
        if (error) *error = "injected send failure";
        return IoStatus::kError;
      case fault::ActionKind::kClose:
        shutdown_rw();
        if (error) *error = "injected mid-stream close";
        return IoStatus::kError;
      case fault::ActionKind::kStall:
      case fault::ActionKind::kDelay:
        fault::sleep_for(a.duration);
        break;
      case fault::ActionKind::kShortWrite:
        chunk_cap = a.bytes > 0 ? a.bytes : 1;
        break;
      default:
        break;
    }
  }
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the daemon.
    const ssize_t rc =
        ::send(fd_, p + sent, std::min(n - sent, chunk_cap), MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc == 0) {
      // send(2) should never return 0 for a nonzero count, but treating it
      // as progress-free success would spin this loop forever.
      if (error) {
        *error = "send returned 0 after " + std::to_string(sent) + "/" +
                 std::to_string(n) + " bytes";
      }
      return IoStatus::kError;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const IoStatus w = poll_for(fd_, POLLOUT, deadline, error);
      if (w != IoStatus::kOk) return w;
      continue;
    }
    set_error(error, "send");
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

bool Socket::recv_fault(std::string* error) {
  if (auto a = fault::hit("net.recv")) {
    switch (a.kind) {
      case fault::ActionKind::kFail:
        if (error) *error = "injected recv failure";
        return false;
      case fault::ActionKind::kClose:
        // The kernel drains to EOF; the read below observes it.
        shutdown_rw();
        break;
      case fault::ActionKind::kStall:
      case fault::ActionKind::kDelay:
        fault::sleep_for(a.duration);
        break;
      default:
        break;
    }
  }
  return true;
}

IoStatus Socket::recv_exact(void* data, std::size_t n, const Deadline& deadline,
                            std::string* error) {
  if (!recv_fault(error)) return IoStatus::kError;
  auto* p = static_cast<std::byte*>(data);
  std::size_t got = 0;
  while (got < n) {
    // Bound the blocking recv with poll so deadlines hold even on sockets
    // left in blocking mode.
    if (!deadline.is_never() || got == 0) {
      const IoStatus w = poll_for(fd_, POLLIN, deadline, error);
      if (w != IoStatus::kOk) return w;
    }
    const ssize_t rc = ::recv(fd_, p + got, n - got, 0);
    if (rc > 0) {
      got += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc == 0) {
      if (got == 0) return IoStatus::kEof;
      if (error) {
        *error = "unexpected EOF after " + std::to_string(got) + "/" +
                 std::to_string(n) + " bytes";
      }
      return IoStatus::kError;
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    set_error(error, "recv");
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

IoStatus Socket::recv_some(void* data, std::size_t cap, std::size_t* got,
                           const Deadline& deadline, std::string* error) {
  *got = 0;
  if (!recv_fault(error)) return IoStatus::kError;
  for (;;) {
    const IoStatus w = poll_for(fd_, POLLIN, deadline, error);
    if (w != IoStatus::kOk) return w;
    const ssize_t rc = ::recv(fd_, data, cap, 0);
    if (rc > 0) {
      *got = static_cast<std::size_t>(rc);
      return IoStatus::kOk;
    }
    if (rc == 0) return IoStatus::kEof;
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    set_error(error, "recv");
    return IoStatus::kError;
  }
}

IoStatus Socket::send_some(const void* data, std::size_t n, std::size_t* sent,
                           std::string* error) {
  *sent = 0;
  for (;;) {
    const ssize_t rc =
        ::send(fd_, data, n, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (rc >= 0) {
      *sent = static_cast<std::size_t>(rc);
      return IoStatus::kOk;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kOk;
    set_error(error, "send");
    return IoStatus::kError;
  }
}

IoStatus Socket::wait_readable(const Deadline& deadline, std::string* error) {
  return poll_for(fd_, POLLIN, deadline, error);
}

std::optional<Socket> connect_unix(const std::string& path,
                                   const Deadline& deadline,
                                   std::string* error) {
  if (auto a = fault::hit("net.connect")) {
    if (a.kind == fault::ActionKind::kStall ||
        a.kind == fault::ActionKind::kDelay) {
      fault::sleep_for(a.duration);
    } else {
      if (error) *error = "injected connect refusal: " + path;
      return std::nullopt;
    }
  }
  sockaddr_un addr;
  if (!fill_addr(path, &addr, error)) return std::nullopt;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    set_error(error, "socket");
    return std::nullopt;
  }
  Socket sock(fd);
  // UNIX-domain connects complete (or fail) immediately; the deadline is
  // honored by retrying while the listener's backlog is full.
  for (;;) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return sock;
    }
    if (errno == EINTR) continue;
    if ((errno == EAGAIN || errno == ECONNREFUSED || errno == ENOENT) &&
        !deadline.expired()) {
      // Daemon may still be binding (ENOENT) or draining its backlog.
      ::poll(nullptr, 0, 20);
      continue;
    }
    set_error(error, ("connect " + path).c_str());
    return std::nullopt;
  }
}

std::optional<Socket> connect_tcp(const std::string& host, std::uint16_t port,
                                  const Deadline& deadline,
                                  std::string* error) {
  const std::string where = host + ":" + std::to_string(port);
  if (auto a = fault::hit("net.tcp_connect")) {
    if (a.kind == fault::ActionKind::kStall ||
        a.kind == fault::ActionKind::kDelay) {
      fault::sleep_for(a.duration);
    } else {
      if (error) *error = "injected tcp connect refusal: " + where;
      return std::nullopt;
    }
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_protocol = IPPROTO_TCP;
  const std::string port_str = std::to_string(port);
  for (;;) {
    addrinfo* res = nullptr;
    const int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res);
    if (rc != 0) {
      if (error) {
        *error = "resolve " + where + ": " + ::gai_strerror(rc);
      }
      return std::nullopt;
    }
    int last_errno = ECONNREFUSED;
    for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
      const int fd =
          ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd < 0) {
        last_errno = errno;
        continue;
      }
      Socket sock(fd);
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        ::freeaddrinfo(res);
        return sock;
      }
      last_errno = errno;
    }
    ::freeaddrinfo(res);
    // Same retry contract as connect_unix: the daemon may still be binding,
    // so connection-refused is retried until the caller's deadline.
    if (last_errno == ECONNREFUSED && !deadline.expired()) {
      ::poll(nullptr, 0, 20);
      continue;
    }
    errno = last_errno;
    set_error(error, ("connect tcp:" + where).c_str());
    return std::nullopt;
  }
}

std::optional<Listener> Listener::bind_tcp(const std::string& host,
                                           std::uint16_t port, int backlog,
                                           std::string* error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_protocol = IPPROTO_TCP;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               port_str.c_str(), &hints, &res);
  if (rc != 0) {
    if (error) {
      *error = "resolve tcp:" + host + ":" + port_str + ": " +
               ::gai_strerror(rc);
    }
    return std::nullopt;
  }
  int bind_errno = EADDRNOTAVAIL;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      bind_errno = errno;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
        ::listen(fd, backlog) != 0) {
      bind_errno = errno;
      ::close(fd);
      continue;
    }
    // Recover the actual port so port 0 (ephemeral) callers can announce a
    // dialable address.
    sockaddr_storage bound{};
    socklen_t len = sizeof(bound);
    std::uint16_t actual = port;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      if (bound.ss_family == AF_INET) {
        actual = ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
      } else if (bound.ss_family == AF_INET6) {
        actual = ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
      }
    }
    ::freeaddrinfo(res);
    Listener l;
    l.fd_ = fd;
    l.port_ = actual;
    const std::string shown = host.empty() ? "0.0.0.0" : host;
    const bool v6 = shown.find(':') != std::string::npos;
    l.name_ = "tcp:" + (v6 ? "[" + shown + "]" : shown) + ":" +
              std::to_string(actual);
    return l;
  }
  ::freeaddrinfo(res);
  errno = bind_errno;
  set_error(error, ("bind tcp:" + host + ":" + port_str).c_str());
  return std::nullopt;
}

std::optional<Listener> Listener::bind_unix(const std::string& path,
                                            int backlog, std::string* error) {
  sockaddr_un addr;
  if (!fill_addr(path, &addr, error)) return std::nullopt;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    set_error(error, "socket");
    return std::nullopt;
  }
  Listener l;
  l.fd_ = fd;
  l.path_ = path;
  l.name_ = "unix:" + path;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    // A SIGKILL'd daemon leaves its socket file behind (only graceful exits
    // unlink). Probe it: connection refused means nobody is listening, so
    // the file is stale and a restarted daemon may reclaim the address. A
    // live daemon answers the probe and keeps the path.
    const int bind_errno = errno;
    bool stale = false;
    if (bind_errno == EADDRINUSE) {
      const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (probe >= 0) {
        if (::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) != 0 &&
            errno == ECONNREFUSED) {
          stale = true;
        }
        ::close(probe);
      }
    }
    if (!stale || ::unlink(path.c_str()) != 0 ||
        ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
            0) {
      if (!stale) errno = bind_errno;
      set_error(error, ("bind " + path).c_str());
      l.path_.clear();  // not ours to unlink
      return std::nullopt;
    }
  }
  if (::listen(fd, backlog) != 0) {
    set_error(error, "listen");
    return std::nullopt;
  }
  return l;
}

Listener::~Listener() { close(); }

Listener::Listener(Listener&& o) noexcept
    : fd_(o.fd_),
      path_(std::move(o.path_)),
      port_(o.port_),
      name_(std::move(o.name_)) {
  o.fd_ = -1;
  o.path_.clear();
  o.port_ = 0;
  o.name_.clear();
}

Listener& Listener::operator=(Listener&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    path_ = std::move(o.path_);
    port_ = o.port_;
    name_ = std::move(o.name_);
    o.fd_ = -1;
    o.path_.clear();
    o.port_ = 0;
    o.name_.clear();
  }
  return *this;
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!path_.empty()) {
    ::unlink(path_.c_str());
    path_.clear();
  }
  port_ = 0;
  name_.clear();
}

std::optional<Socket> Listener::accept(const Deadline& deadline,
                                       IoStatus* status, std::string* error) {
  for (;;) {
    const IoStatus w = poll_for(fd_, POLLIN, deadline, error);
    if (w != IoStatus::kOk) {
      if (status) *status = w;
      return std::nullopt;
    }
    // A scripted fail here simulates fd exhaustion: the poll reported a
    // pending connection, but accept(2) cannot mint an fd for it.
    if (auto a = fault::hit("net.accept")) {
      if (a.kind == fault::ActionKind::kStall ||
          a.kind == fault::ActionKind::kDelay) {
        fault::sleep_for(a.duration);
      } else {
        if (error) *error = "injected accept failure: EMFILE";
        if (status) *status = IoStatus::kTransient;
        return std::nullopt;
      }
    }
    const int cfd = ::accept(fd_, nullptr, nullptr);
    if (cfd >= 0) {
      if (status) *status = IoStatus::kOk;
      return Socket(cfd);
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED) {
      continue;
    }
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS) {
      // The pending connection stays queued and keeps the listener
      // readable, so retrying here would spin. Report kTransient and let
      // the caller back off until fds free up.
      set_error(error, "accept");
      if (status) *status = IoStatus::kTransient;
      return std::nullopt;
    }
    set_error(error, "accept");
    if (status) *status = IoStatus::kError;
    return std::nullopt;
  }
}

}  // namespace ewc::net
