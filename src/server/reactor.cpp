#include "server/reactor.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "fault/injector.hpp"

namespace ewc::server {

namespace {

constexpr int kAcceptBackoffFloorMs = 1;
constexpr int kAcceptBackoffCapMs = 100;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// The connections the current pump turn on this thread corked; nullptr
/// off a pump turn.
thread_local std::vector<Reactor::ConnPtr>* t_corked = nullptr;

}  // namespace

void Reactor::Conn::fail_locked() {
  closing_.store(true, std::memory_order_relaxed);
  // Shut the read side down too so the reactor notices and runs the close
  // path for this connection.
  sock_.shutdown_rw();
}

bool Reactor::Conn::drain_locked() {
  for (;;) {
    std::vector<std::byte> out;
    {
      std::lock_guard lock(out_mu_);
      if (outq_.empty()) {
        flush_posted_ = false;
        return true;
      }
      out.swap(outq_);
    }
    reactor_->options_.queued_writes.inc();
    if (sock_.send_exact(out.data(), out.size(),
                         net::Deadline::after(reactor_->options_.io_timeout),
                         nullptr) != net::IoStatus::kOk) {
      fail_locked();
      return false;
    }
  }
}

bool Reactor::Conn::send(std::uint16_t type,
                         std::span<const std::byte> payload) {
  std::lock_guard lock(write_mu_);
  if (!drain_locked()) return false;
  std::string err;
  const auto s = net::write_frame(
      sock_, type, payload,
      net::Deadline::after(reactor_->options_.io_timeout), &err);
  if (s != net::IoStatus::kOk) {
    fail_locked();
    return false;
  }
  return true;
}

bool Reactor::Conn::flush() {
  std::lock_guard lock(write_mu_);
  return drain_locked();
}

Reactor::Conn::WriteStatus Reactor::Conn::write(
    std::vector<std::byte> frames) {
  if (closing()) return WriteStatus::kFailed;
  std::unique_lock wlock(write_mu_, std::defer_lock);
  std::span<const std::byte> rest = frames;
  {
    std::lock_guard lock(out_mu_);
    // Frames handed over earlier go first; and a busy mutex means some
    // other writer (perhaps blocked on a full socket) owns the stream.
    if (!outq_.empty() || !wlock.try_lock()) {
      outq_.insert(outq_.end(), rest.begin(), rest.end());
      rest = {};
    }
  }
  if (wlock.owns_lock()) {
    std::size_t sent = 0;
    reactor_->options_.queued_writes.inc();
    if (sock_.send_some(rest.data(), rest.size(), &sent, nullptr) !=
        net::IoStatus::kOk) {
      fail_locked();
      return WriteStatus::kFailed;
    }
    if (sent == rest.size()) return WriteStatus::kWritten;
    // A short write leaves a partial frame on the wire: the remainder must
    // precede anything queued since, and every later sender drains it
    // before writing.
    rest = rest.subspan(sent);
    {
      std::lock_guard lock(out_mu_);
      outq_.insert(outq_.begin(), rest.begin(), rest.end());
    }
    wlock.unlock();
  }
  bool post_flush = false;
  {
    std::lock_guard lock(out_mu_);
    post_flush = !flush_posted_;
    flush_posted_ = true;
  }
  if (post_flush && !post([self = shared_from_this()] { self->flush(); })) {
    return WriteStatus::kFailed;
  }
  return WriteStatus::kQueued;
}

void Reactor::Conn::cork(std::uint16_t type,
                         std::span<const std::byte> payload) {
  {
    std::lock_guard lock(out_mu_);
    net::append_frame(outq_, type, payload);
  }
  if (t_corked == nullptr) {
    flush();
    return;
  }
  auto self = shared_from_this();
  if (std::find(t_corked->begin(), t_corked->end(), self) ==
      t_corked->end()) {
    t_corked->push_back(std::move(self));
  }
}

bool Reactor::Conn::post(std::function<void()> task) {
  {
    std::lock_guard lock(q_mu_);
    if (close_queued_ || close_delivered_) return false;
    tasks_.push_back(std::move(task));
  }
  reactor_->schedule(shared_from_this());
  return true;
}

bool Reactor::Conn::read_ended() {
  std::lock_guard lock(q_mu_);
  return close_queued_ || close_delivered_;
}

void Reactor::Conn::close_async() {
  closing_.store(true, std::memory_order_relaxed);
  sock_.shutdown_rw();
}

Reactor::Reactor(Options options, Handler handler)
    : options_(options), handler_(std::move(handler)) {}

Reactor::~Reactor() {
  notify_stop();
  join();
  if (epfd_ >= 0) ::close(epfd_);
  if (wakefd_ >= 0) ::close(wakefd_);
}

bool Reactor::start(net::Listener listener, std::string* error) {
  if (started_.load()) {
    if (error) *error = "reactor already started";
    return false;
  }
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) {
    if (error) *error = std::string("epoll_create1: ") + std::strerror(errno);
    return false;
  }
  wakefd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wakefd_ < 0) {
    if (error) *error = std::string("eventfd: ") + std::strerror(errno);
    return false;
  }
  listener_ = std::move(listener);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = const_cast<int*>(&wake_tag_);
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, wakefd_, &ev) != 0) {
    if (error) *error = std::string("epoll_ctl wake: ") + std::strerror(errno);
    return false;
  }
  ev.data.ptr = const_cast<int*>(&listener_tag_);
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, listener_->fd(), &ev) != 0) {
    if (error) {
      *error = std::string("epoll_ctl listener: ") + std::strerror(errno);
    }
    return false;
  }

  int workers = options_.workers;
  if (workers <= 0) {
    workers = std::min(
        16, std::max(4, static_cast<int>(std::thread::hardware_concurrency())));
  }
  pool_ = std::make_unique<common::ThreadPool>(
      static_cast<std::size_t>(workers));

  started_.store(true);
  thread_ = std::thread([this] { run(); });
  return true;
}

void Reactor::notify_stop() {
  stop_requested_.store(true);
  if (wakefd_ >= 0) {
    const std::uint64_t one = 1;
    // eventfd write is async-signal-safe; a full counter means a wake-up is
    // already pending.
    [[maybe_unused]] ssize_t rc = ::write(wakefd_, &one, sizeof(one));
  }
}

void Reactor::join() {
  if (thread_.joinable()) thread_.join();
}

void Reactor::wake() {
  if (wakefd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t rc = ::write(wakefd_, &one, sizeof(one));
  }
}

void Reactor::post_op(std::function<void()> op) {
  {
    std::lock_guard lock(ops_mu_);
    ops_.push_back(std::move(op));
  }
  wake();
}

Reactor::ConnPtr Reactor::adopt(net::Socket sock, std::shared_ptr<void> ctx) {
  if (!started_.load() || stop_requested_.load()) return nullptr;
  auto conn = std::make_shared<Conn>();
  conn->reactor_ = this;
  conn->id_ = next_id_.fetch_add(1);
  conn->sock_ = std::move(sock);
  conn->ctx_ = std::move(ctx);
  set_nonblocking(conn->sock_.fd());
  post_op([this, conn] { register_conn(conn); });
  return conn;
}

void Reactor::register_conn(const ConnPtr& conn) {
  conns_.push_back(conn);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP;
  ev.data.ptr = conn.get();
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, conn->sock_.fd(), &ev) != 0) {
    finish_read(conn, CloseReason::kError,
                std::string("epoll_ctl add: ") + std::strerror(errno));
  }
}

void Reactor::run() {
  const auto tick = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(options_.tick.seconds()));
  auto next_tick = std::chrono::steady_clock::now() + tick;
  epoll_event events[64];
  while (!stop_requested_.load()) {
    const auto now = std::chrono::steady_clock::now();
    int timeout_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(next_tick - now)
            .count());
    timeout_ms = std::clamp(timeout_ms, 0, 1000);
    const int n = ::epoll_wait(epfd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed: drain and stop
    }
    for (int i = 0; i < n; ++i) {
      void* ptr = events[i].data.ptr;
      if (ptr == &wake_tag_) {
        std::uint64_t buf;
        while (::read(wakefd_, &buf, sizeof(buf)) > 0) {
        }
        std::vector<std::function<void()>> ops;
        {
          std::lock_guard lock(ops_mu_);
          ops.swap(ops_);
        }
        for (auto& op : ops) op();
      } else if (ptr == &listener_tag_) {
        do_accept();
      } else {
        do_read(static_cast<Conn*>(ptr)->shared_from_this());
      }
    }
    if (std::chrono::steady_clock::now() >= next_tick) {
      next_tick = std::chrono::steady_clock::now() + tick;
      if (accept_resume_at_.has_value() &&
          std::chrono::steady_clock::now() >= *accept_resume_at_) {
        accept_resume_at_.reset();
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.ptr = const_cast<int*>(&listener_tag_);
        ::epoll_ctl(epfd_, EPOLL_CTL_ADD, listener_->fd(), &ev);
      }
      if (handler_.on_tick) handler_.on_tick();
    }
  }
  teardown();
}

void Reactor::do_accept() {
  for (;;) {
    std::string err;
    net::IoStatus status;
    auto sock = listener_->accept(
        net::Deadline::after(common::Duration::zero()), &status, &err);
    if (!sock.has_value()) {
      if (status == net::IoStatus::kTransient) {
        // The pending connection keeps the listener readable, so accepting
        // again immediately would spin. Deregister it and resume after a
        // capped exponential backoff (driven by the tick).
        accept_backoff_ms_ =
            std::min(std::max(accept_backoff_ms_ * 2, kAcceptBackoffFloorMs),
                     kAcceptBackoffCapMs);
        accept_resume_at_ =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(accept_backoff_ms_);
        ::epoll_ctl(epfd_, EPOLL_CTL_DEL, listener_->fd(), nullptr);
        if (handler_.on_accept_backoff) handler_.on_accept_backoff();
      }
      // kTimeout: no more pending connections. kError: transient oddity
      // (e.g. ECONNABORTED storms are swallowed by accept itself); skip.
      return;
    }
    accept_backoff_ms_ = 0;
    set_nonblocking(sock->fd());
    const int one = 1;
    // No-op (ENOTSUP) on UNIX-domain sockets; tiny request/response frames
    // on TCP should not wait out Nagle.
    ::setsockopt(sock->fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->reactor_ = this;
    conn->id_ = next_id_.fetch_add(1);
    conn->sock_ = std::move(*sock);
    if (handler_.on_open) handler_.on_open(conn);
    register_conn(conn);
  }
}

void Reactor::do_read(const ConnPtr& conn) {
  if (auto a = fault::hit("net.recv")) {
    switch (a.kind) {
      case fault::ActionKind::kFail:
        finish_read(conn, CloseReason::kError, "injected recv failure");
        return;
      case fault::ActionKind::kClose:
        conn->sock_.shutdown_rw();
        break;
      case fault::ActionKind::kStall:
      case fault::ActionKind::kDelay:
        fault::sleep_for(a.duration);
        break;
      default:
        break;
    }
  }
  std::byte buf[65536];
  for (;;) {
    const ssize_t rc = ::recv(conn->sock_.fd(), buf, sizeof(buf), 0);
    if (rc > 0) {
      conn->inbuf_.append({buf, static_cast<std::size_t>(rc)});
      std::string why;
      if (!parse_frames(conn, &why)) {
        finish_read(conn, CloseReason::kProtocol, why);
        return;
      }
      if (rc < static_cast<ssize_t>(sizeof(buf))) return;
      continue;
    }
    if (rc == 0) {
      if (conn->closing()) {
        finish_read(conn, CloseReason::kLocal, "");
      } else if (conn->inbuf_.empty()) {
        finish_read(conn, CloseReason::kEof, "");
      } else {
        finish_read(conn, CloseReason::kError, "unexpected EOF mid-frame");
      }
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    finish_read(conn,
                conn->closing() ? CloseReason::kLocal : CloseReason::kError,
                std::string("recv: ") + std::strerror(errno));
    return;
  }
}

bool Reactor::parse_frames(const ConnPtr& conn, std::string* why) {
  bool queued = false;
  for (;;) {
    net::Frame frame;
    const auto got = conn->inbuf_.pop(&frame, why);
    if (got == net::FrameBuffer::Pop::kBad) return false;
    if (got == net::FrameBuffer::Pop::kIncomplete) break;
    std::lock_guard lock(conn->q_mu_);
    conn->inbox_.push_back(std::move(frame));
    queued = true;
  }
  if (queued) schedule(conn);
  return true;
}

void Reactor::finish_read(const ConnPtr& conn, CloseReason reason,
                          std::string msg) {
  {
    std::lock_guard lock(conn->q_mu_);
    if (conn->close_queued_) return;
    conn->close_queued_ = true;
    conn->close_reason_ = reason;
    conn->close_msg_ = std::move(msg);
  }
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, conn->sock_.fd(), nullptr);
  schedule(conn);
}

void Reactor::schedule(ConnPtr conn) {
  {
    std::lock_guard lock(conn->q_mu_);
    if (conn->pump_scheduled_) return;
    conn->pump_scheduled_ = true;
  }
  std::lock_guard lock(pool_mu_);
  if (stopping_ || pool_ == nullptr) return;
  pool_->post([this, c = std::move(conn)] { pump(c); });
}

void Reactor::pump(const ConnPtr& conn) {
  // Frames the handlers cork during a turn leave in one write per peer at
  // the turn's end.
  std::vector<ConnPtr> corked;
  t_corked = &corked;
  for (;;) {
    std::deque<std::function<void()>> tasks;
    std::deque<net::Frame> frames;
    bool close = false;
    {
      std::lock_guard lock(conn->q_mu_);
      tasks.swap(conn->tasks_);
      frames.swap(conn->inbox_);
      if (tasks.empty() && frames.empty()) {
        if (!conn->close_queued_ || conn->close_delivered_) {
          conn->pump_scheduled_ = false;
          break;
        }
        conn->close_delivered_ = true;
        close = true;
      }
    }
    for (auto& task : tasks) task();
    if (handler_.on_frame) {
      for (auto& frame : frames) handler_.on_frame(conn, std::move(frame));
    }
    if (close) {
      if (handler_.on_close) {
        handler_.on_close(conn, conn->close_reason_, conn->close_msg_);
      }
      retire(conn);
    }
    for (const auto& peer : corked) peer->flush();
    corked.clear();
  }
  t_corked = nullptr;
}

void Reactor::retire(const ConnPtr& conn) {
  post_op([this, conn] {
    conns_.erase(std::remove(conns_.begin(), conns_.end(), conn),
                 conns_.end());
  });
}

void Reactor::teardown() {
  // Stop accepting first (unlinks a UNIX socket path), then let the handler
  // drain gracefully while connections are still writable.
  listener_.reset();
  if (handler_.on_shutdown) handler_.on_shutdown();
  // Shut every connection down so a pump blocked in a send fails fast...
  for (auto& c : conns_) {
    c->closing_.store(true);
    c->sock_.shutdown_rw();
  }
  {
    std::lock_guard lock(pool_mu_);
    stopping_ = true;
  }
  // ...then drain the pump queue and join the workers.
  pool_.reset();
  conns_.clear();
  {
    std::lock_guard lock(ops_mu_);
    ops_.clear();
  }
  if (handler_.on_stopped) handler_.on_stopped();
}

}  // namespace ewc::server
