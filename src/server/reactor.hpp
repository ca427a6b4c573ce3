// Epoll-driven event core for ewcd and the fleet router.
//
// PR 2's server spent two threads per connection (reader + writer), which
// caps one shard at a few hundred sessions before thread stacks and context
// switches dominate. The fleet wants one shard to hold thousands of mostly-
// idle sessions, so the accept/read path moves onto one epoll loop:
//
//   reactor thread:  epoll_wait over listener + every connection. Accepts,
//                    reads whatever bytes are available (non-blocking),
//                    parses complete EWC1 frames, queues them per
//                    connection, and fires the periodic tick.
//   worker pool:     a bounded common::ThreadPool runs each connection's
//                    "pump". The pump is serialized per connection (a
//                    scheduled flag under the queue mutex), so handler
//                    callbacks for one connection never run concurrently
//                    and frames are processed in arrival order — the same
//                    ordering contract the dedicated reader thread gave.
//                    One pump turn takes every queued task and frame.
//   writes:          Conn::send stays blocking-style. Socket::send_exact
//                    polls POLLOUT on EAGAIN, so the framed-send path (and
//                    its fault hooks) works unchanged on the non-blocking
//                    fds. Two batched paths share one per-connection queue
//                    of encoded frames: Conn::write (any thread) tries one
//                    non-blocking send and leaves the rest to the
//                    connection's pump; Conn::cork (on a pump turn) holds
//                    frames until the turn ends and sends them in one
//                    write. Every send drains that queue first, so frames
//                    leave in the order they were handed over.
//
// The reactor owns the listener and every connection fd; sockets are
// registered and retired only on the reactor thread. Handlers own all
// protocol state via Conn::ctx.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/registry.hpp"

namespace ewc::server {

/// Why a connection's read side ended.
enum class CloseReason {
  kEof,       ///< peer closed cleanly between frames
  kError,     ///< errno-level read failure or EOF mid-frame
  kProtocol,  ///< unparseable frame header; stream unrecoverable
  kLocal,     ///< we closed it (close_async or a failed send)
};

class Reactor {
 public:
  class Conn;
  using ConnPtr = std::shared_ptr<Conn>;

  struct Options {
    /// Pump worker threads; 0 = min(16, max(4, hardware_concurrency)).
    int workers = 0;
    /// Tick period for on_tick (deadline sweeps) and accept-backoff resume.
    common::Duration tick = common::Duration::from_millis(50.0);
    /// Per-frame blocking-send budget (a stuck peer cannot wedge a worker
    /// forever).
    common::Duration io_timeout = common::Duration::from_seconds(30.0);
    /// Bumped once per send of queued frames (Conn::write, and the flushes
    /// that finish a write or a turn's corked frames): next to a count of
    /// the frames, it reads as frames per write.
    obs::Counter queued_writes;
  };

  struct Handler {
    /// A new accepted connection, before its first byte is read (reactor
    /// thread — keep it cheap; attach ctx here).
    std::function<void(const ConnPtr&)> on_open;
    /// One complete frame, in order (worker pool, serialized per conn).
    std::function<void(const ConnPtr&, net::Frame)> on_frame;
    /// Read side ended and every queued frame/task was pumped (worker
    /// pool, serialized per conn; exactly once per connection that got
    /// on_open or adopt). Not guaranteed during reactor teardown.
    std::function<void(const ConnPtr&, CloseReason, const std::string&)>
        on_close;
    /// Transient accept failure (fd exhaustion): the listener is paused on
    /// a capped exponential backoff (reactor thread).
    std::function<void()> on_accept_backoff;
    /// Every Options::tick, on the reactor thread. Never blocks on I/O —
    /// post() closures to connections instead.
    std::function<void()> on_tick;
    /// The event loop exited (stop requested): runs on the reactor thread
    /// after the listener closed but before connections are torn down.
    /// Blocking sends are allowed here (graceful-drain error replies).
    std::function<void()> on_shutdown;
    /// Teardown finished: workers joined, connections closed.
    std::function<void()> on_stopped;
  };

  Reactor(Options options, Handler handler);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Take ownership of a bound listener and start the event loop thread.
  bool start(net::Listener listener, std::string* error);

  /// Async-signal-safe stop trigger (eventfd write).
  void notify_stop();

  /// Join the reactor thread (after notify_stop; idempotent).
  void join();

  /// Register an outbound (dialed) socket with the event loop — the
  /// router's upstream shard connections. `ctx` is attached before any
  /// frame can be delivered. Thread-safe. Returns nullptr after stop.
  ConnPtr adopt(net::Socket sock, std::shared_ptr<void> ctx);

  /// One reactor-managed connection. Handlers hold ConnPtrs freely; the
  /// underlying fd closes when the reactor retires the connection and the
  /// last reference drops.
  class Conn : public std::enable_shared_from_this<Conn> {
   public:
    std::uint64_t id() const { return id_; }

    /// Handler-owned protocol state, attached in on_open / adopt.
    const std::shared_ptr<void>& ctx() const { return ctx_; }
    void set_ctx(std::shared_ptr<void> ctx) { ctx_ = std::move(ctx); }

    /// Blocking framed send under the connection's write mutex (bounded by
    /// Options::io_timeout), after any frames queued by write() or cork().
    /// Callable from any thread. On failure the connection is marked
    /// closing and shut down, so the reactor notices.
    bool send(std::uint16_t type, std::span<const std::byte> payload);

    enum class WriteStatus {
      kWritten,  ///< all of it went out in one non-blocking send
      kQueued,   ///< the rest waits for the pump's blocking flush
      kFailed,   ///< the connection is closing (or its pump is gone)
    };
    /// Send whole encoded frames (net::append_frame) without ever blocking
    /// the caller: one non-blocking send when the write mutex is free and
    /// nothing handed over earlier is still queued. Otherwise — the mutex
    /// is busy, earlier frames wait, or the socket took only part — the
    /// rest is queued and the connection's pump finishes it with a blocking
    /// flush(). A stuck peer therefore stalls only its own pump.
    WriteStatus write(std::vector<std::byte> frames);

    /// Queue one frame to leave at the end of the calling pump turn, in one
    /// write with everything else queued here meanwhile. Called off a pump
    /// turn, it flushes at once.
    void cork(std::uint16_t type, std::span<const std::byte> payload);

    /// Blocking send of everything queued by write() and cork(). False
    /// (connection marked closing) when the send fails.
    bool flush();

    /// Queue a closure on this connection's serialized pump — reply
    /// deliveries, deadline errors. Returns false (closure dropped) once
    /// the read side has ended: the peer is gone, nothing to deliver to.
    bool post(std::function<void()> task);

    /// Graceful local close: marks closing and shuts the socket down; the
    /// reactor observes EOF and runs the normal close path (kLocal).
    void close_async();

    bool closing() const { return closing_.load(std::memory_order_relaxed); }

    /// The read side has ended: post() would drop its task, because the
    /// peer is gone.
    bool read_ended();

   private:
    friend class Reactor;
    /// Under write_mu_: send the queued frames. False on failure.
    bool drain_locked();
    /// Under write_mu_: a send failed; mark closing and wake the reactor.
    void fail_locked();

    Reactor* reactor_ = nullptr;
    std::uint64_t id_ = 0;
    net::Socket sock_;
    std::mutex write_mu_;  ///< held while bytes go to the socket
    std::shared_ptr<void> ctx_;

    std::mutex out_mu_;  ///< guards the two below; never held across I/O
    std::vector<std::byte> outq_;  ///< encoded frames not yet sent
    bool flush_posted_ = false;    ///< a flush task is on the pump

    std::mutex q_mu_;  ///< guards everything below
    std::deque<net::Frame> inbox_;
    std::deque<std::function<void()>> tasks_;
    bool pump_scheduled_ = false;
    bool close_queued_ = false;
    bool close_delivered_ = false;
    CloseReason close_reason_ = CloseReason::kEof;
    std::string close_msg_;

    std::atomic<bool> closing_{false};
    /// Partial-frame accumulation; reactor thread only.
    net::FrameBuffer inbuf_;
  };

 private:
  void run();
  void do_accept();
  void do_read(const ConnPtr& conn);
  /// Parse complete frames out of conn->inbuf_; false on a protocol error.
  bool parse_frames(const ConnPtr& conn, std::string* why);
  /// Read side is done: deregister the fd and queue the close event.
  void finish_read(const ConnPtr& conn, CloseReason reason, std::string msg);
  void register_conn(const ConnPtr& conn);
  void schedule(ConnPtr conn);
  void pump(const ConnPtr& conn);
  void retire(const ConnPtr& conn);
  void post_op(std::function<void()> op);
  void wake();
  void teardown();

  Options options_;
  Handler handler_;

  int epfd_ = -1;
  int wakefd_ = -1;  ///< eventfd: stop requests and pending ops
  std::optional<net::Listener> listener_;
  std::thread thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_requested_{false};

  /// Reactor-thread-only connection registry (fd lifetime authority).
  std::vector<ConnPtr> conns_;
  std::atomic<std::uint64_t> next_id_{1};

  /// Cross-thread operations executed on the reactor thread.
  std::mutex ops_mu_;
  std::vector<std::function<void()>> ops_;

  /// Pump pool; guarded so schedule() after teardown is a safe no-op.
  std::mutex pool_mu_;
  std::unique_ptr<common::ThreadPool> pool_;
  bool stopping_ = false;

  /// Accept backoff state (reactor thread only).
  int accept_backoff_ms_ = 0;
  std::optional<std::chrono::steady_clock::time_point> accept_resume_at_;

  /// epoll_event.data.ptr sentinels for the two non-connection fds.
  const int listener_tag_ = 0;
  const int wake_tag_ = 0;
};

}  // namespace ewc::server
