// ewcd — the consolidation daemon, one shard of the served fleet.
//
// The paper (Section IV) deploys the framework as a frontend shared library
// in each user process talking to a backend daemon over a UNIX-socket
// connection. This is that service boundary made real: Server accepts N
// concurrent client connections over a UNIX or TCP endpoint, speaks the
// framed wire protocol (net/frame.hpp + server/protocol_wire.hpp), and
// bridges every decoded LaunchRequest onto the existing
// consolidate::Backend channel. Replies are correlated back to their
// connection through a server-wide demux keyed by (session, owner,
// request_id).
//
// Service properties:
//   * admission control — at most `inflight_limit` unanswered launches per
//     client; excess launches are rejected immediately with an error
//     CompletionReply (backpressure instead of unbounded queueing);
//   * per-request deadlines — a launch unanswered after `request_deadline`
//     (real time) is failed with an error reply; a later backend reply for
//     it is dropped;
//   * fault isolation — a client dying mid-batch fails only that client's
//     outstanding replies; the daemon keeps serving every other connection;
//   * replay idempotency — every backend reply flows through one server-wide
//     channel and a demux thread that routes it by (session, owner,
//     request_id); a reconnecting client replaying an unanswered launch
//     re-points the route (never re-executes), and a launch already
//     answered is served from a bounded per-session completed-reply log.
//     At-least-once delivery over the socket, exactly-once execution in the
//     backend. The session nonce from the hello scopes all of this to one
//     client process lifetime: a fresh process reusing the same owner names
//     and request ids can never be answered from a predecessor's cached
//     replies. Only sessions that negotiate replay record completions, and
//     an idle session is evicted after replay_grace;
//   * graceful drain — on stop (SIGTERM via notify_stop()) the daemon stops
//     accepting, fails outstanding replies with an error, flushes the
//     pending backend batch (bounded by drain_timeout), and exits.
//
// Threads: one epoll reactor (accept + all socket reads + the tick-driven
// deadline sweeps), a bounded pump worker pool running the per-connection
// protocol handlers (serialized per connection — see server/reactor.hpp),
// and one backend-reply demux. Thousands of idle sessions cost fds and a
// few hundred bytes each, not two threads each. All socket I/O is real
// time; the simulated clock stays inside the Backend.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "consolidate/backend.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "server/protocol_wire.hpp"
#include "server/reactor.hpp"
#include "server/telemetry.hpp"

namespace ewc::server {

struct ServerOptions {
  /// Endpoint to serve on: `unix:/path`, `tcp:host:port` (port 0 picks an
  /// ephemeral port; see Server::endpoint()), or a bare UNIX path.
  std::string socket_path;
  /// Concurrent client connections; further connects get kError + close.
  int max_clients = 64;
  /// Unanswered launches per client before rejection (backpressure).
  int inflight_limit = 64;
  /// Real-time budget for one launch to be answered; zero = unlimited.
  common::Duration request_deadline = common::Duration::zero();
  /// Bound on waiting for the backend flush while draining.
  common::Duration drain_timeout = common::Duration::from_seconds(10.0);
  /// Per-frame socket write budget (a stuck client cannot wedge a writer),
  /// and the handshake budget: a connection that sends no hello within it
  /// is closed.
  common::Duration io_timeout = common::Duration::from_seconds(30.0);
  /// How long a replay session's dedup state (the completed-reply log)
  /// survives after its last connection closed. A client reconnecting
  /// within the window replays idempotently; past it the session is
  /// evicted and a replay would re-execute — the window bounds daemon
  /// memory across many client lifetimes.
  common::Duration replay_grace = common::Duration::from_seconds(120.0);
  /// Most pump worker threads (0 = min(16, max(4, hardware))), started as
  /// frames need them. Bounds protocol-handler concurrency regardless of
  /// connection count.
  int workers = 0;
  /// Time-series sampler tick (seconds), taken on the reactor's 50 ms tick:
  /// every sample snapshots rps / p95 / power_watts / joules-per-request /
  /// inflight into ring buffers served with a kStats series request. 0
  /// disables the sampler (such a request then gets an empty series map).
  double metrics_interval = 1.0;
  /// Points kept per series (history window = interval * history).
  std::size_t metrics_history = 120;
};

class Server {
 public:
  Server(consolidate::Backend& backend, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the endpoint and start serving. False (with *error) on failure.
  bool start(std::string* error);

  /// Async-signal-safe stop trigger (callable from a SIGTERM handler).
  void notify_stop();

  /// Block until the daemon has drained and stopped.
  void wait();

  /// notify_stop() + wait().
  void stop();

  bool running() const { return running_.load(); }
  const std::string& socket_path() const { return options_.socket_path; }
  /// Canonical endpoint actually bound (resolves a tcp port-0 bind).
  const std::string& endpoint() const { return bound_endpoint_; }
  /// Connections accepted as clients and not yet closed (observability).
  int active_connections() const;

 private:
  /// Admission-time bookkeeping for one unanswered launch.
  struct Outstanding {
    /// LaunchRequest::owner — with the id, the server-wide routing key.
    std::string owner;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    /// steady-clock µs at admission (Tracer::now_us domain): the request-
    /// latency histogram and the server-side request span measure from
    /// here.
    double admitted_at_us = 0.0;
    /// Distributed-trace context from the launch's additive wire fields,
    /// carried to the completion so the server.request span joins the
    /// client's trace. 0 = none.
    std::uint64_t trace_id = 0;
    std::uint64_t parent_span_id = 0;
  };

  /// Per-connection protocol state, attached as Reactor::Conn::ctx. State
  /// transitions happen on the connection's serialized pump; the reactor
  /// tick reads `state` for the handshake/deadline sweeps.
  struct ConnCtx {
    enum class State { kAwaitHello, kServing, kRejecting, kClosed };
    std::atomic<State> state{State::kAwaitHello};
    std::chrono::steady_clock::time_point hello_deadline{};
    std::string owner;
    /// Client session nonce from the hello (0 = none). Scopes every
    /// routing/dedup key: deterministic owner names and restarting
    /// request-id sequences cannot collide across client processes.
    std::uint64_t session = 0;
    /// Session negotiated replay in the hello: completed replies are
    /// recorded for dedup and survive a disconnect within replay_grace.
    bool replay = false;
    std::mutex mu;  ///< guards `outstanding`
    std::map<std::uint64_t, Outstanding> outstanding;
    std::weak_ptr<Reactor::Conn> conn;
  };
  using CtxPtr = std::shared_ptr<ConnCtx>;

  /// Delivery key for one launch: (session, owner, request_id). The
  /// session nonce scopes the key to one client process lifetime; within a
  /// session request_ids are connection-unique, and for session-less
  /// legacy clients (session 0) owners are globally unique per app thread.
  using RequestKey =
      std::tuple<std::uint64_t, std::string, std::uint64_t>;

  /// One pending delivery: which connection the answer goes back to, plus
  /// the trace correlation captured at admission. The trace fields live
  /// here — not only in the connection's outstanding table — so a reply
  /// whose connection died first (a forwarding router crash) can still
  /// emit its server.request span when the answer is parked for replay.
  struct Route {
    std::weak_ptr<ConnCtx> ctx;
    std::uint64_t trace_id = 0;
    std::uint64_t parent_span_id = 0;
    double admitted_at_us = 0.0;
  };

  // Reactor handlers.
  void on_open(const Reactor::ConnPtr& conn);
  void on_frame(const Reactor::ConnPtr& conn, net::Frame frame);
  void on_close(const Reactor::ConnPtr& conn, CloseReason reason,
                const std::string& msg);
  void on_tick();
  void on_shutdown();

  // Frame handlers (pump workers, serialized per connection).
  void handle_hello(const Reactor::ConnPtr& conn, const CtxPtr& ctx,
                    const net::Frame& frame);
  void handle_launch(const Reactor::ConnPtr& conn, const CtxPtr& ctx,
                     const net::Frame& frame);
  void handle_flush(const Reactor::ConnPtr& conn, const net::Frame& frame);
  /// Live-migration export: snapshot (commit=false) or drop (commit=true)
  /// one replay session's completed log. A snapshot is refused while the
  /// session has in-flight launches, and refused/torn exports leave the
  /// source state untouched — the shard stays authoritative until the
  /// router has the import acked and sends the commit.
  void handle_migrate_export(const Reactor::ConnPtr& conn,
                             const net::Frame& frame);
  /// Live-migration import: install a session snapshot into sessions_
  /// (first write wins against replies already recorded here, same rule as
  /// record_completed_locked).
  void handle_migrate_import(const Reactor::ConnPtr& conn,
                             const net::Frame& frame);
  /// Fill telemetry_: the kStats body is the registry snapshot; with
  /// metrics_interval > 0, also register the daemon's derived series (rps,
  /// p95, watts, J/request, inflight), sampled from on_tick.
  void start_telemetry();

  /// Routes every backend reply to the connection currently owning its
  /// (session, owner, request_id) — which may not be the one that forwarded
  /// it, if the client reconnected — and records it in the session's
  /// completed log when replay was negotiated.
  void demux_loop();
  /// Deliver one connection's share of a demux wake (`members` index
  /// `replies`), in backend order:
  /// the still-outstanding replies' frames go out back to back in one
  /// Conn::write (a non-blocking send on the demux thread, with the
  /// connection's pump finishing whatever the socket did not take). With a
  /// fault scenario armed the pump sends them one by one through
  /// deliver_completion instead. False when the connection is gone.
  bool deliver_batch(const CtxPtr& ctx,
                     const std::vector<consolidate::CompletionReply>& replies,
                     const std::vector<std::size_t>& members);
  /// On the connection's pump: drop if no longer outstanding (deadline or
  /// drain already answered it), else send + record latency/span.
  void deliver_completion(const Reactor::ConnPtr& conn, const CtxPtr& ctx,
                          const consolidate::CompletionReply& reply);
  /// A reply left the server (or failed to): record its residency and the
  /// server.request span.
  void finish_request(const consolidate::CompletionReply& reply,
                      const Outstanding& entry, bool delivered);
  void drain();

  void send_completion_error(const Reactor::ConnPtr& conn,
                             std::uint64_t request_id,
                             const std::string& error);
  /// Under route_mu_: drop the route and — for replay sessions only —
  /// remember the reply for replays (first write wins; the log is capped
  /// per session, oldest evicted).
  void record_completed_locked(const consolidate::CompletionReply& reply);
  /// Under route_mu_: evict replay sessions idle past replay_grace.
  void sweep_sessions_locked();
  /// Attach/detach a connection's replay session (hello / close).
  void register_session(const ConnCtx& ctx);
  void release_session(const ConnCtx& ctx);

  consolidate::Backend& backend_;
  ServerOptions options_;
  std::string bound_endpoint_;

  std::unique_ptr<Reactor> reactor_;

  mutable std::mutex conns_mu_;
  std::map<std::uint64_t, CtxPtr> conns_;  ///< by Reactor::Conn id

  /// All backend replies funnel through this one channel into demux_loop();
  /// per-connection channels would die with their connection and strand
  /// replies a reconnecting client still needs.
  std::shared_ptr<consolidate::ReplyChannel> backend_replies_ =
      std::make_shared<consolidate::ReplyChannel>();
  std::thread demux_;
  std::mutex route_mu_;
  std::map<RequestKey, Route> routes_;
  /// Replay/dedup state for one client session that negotiated replay in
  /// its hello (session nonce != 0). Answered launches are keyed by
  /// request_id — connection-assigned, so unique within the session — in a
  /// bounded FIFO. The whole session is evicted once it has been idle (no
  /// live connection) past replay_grace, bounding daemon memory across
  /// client lifetimes; sessions that never negotiate replay record nothing.
  struct SessionState {
    std::map<std::uint64_t, consolidate::CompletionReply> replies;
    std::deque<std::uint64_t> order;
    int live_connections = 0;
    /// When the last connection closed; meaningful while live == 0.
    std::chrono::steady_clock::time_point idle_since{};
  };
  std::map<std::uint64_t, SessionState> sessions_;
  static constexpr std::size_t kCompletedCapPerSession = 1024;

  /// The kStats endpoint and its sampler.
  Telemetry telemetry_;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::mutex stopped_mu_;
  std::condition_variable stopped_cv_;
  bool stopped_ = true;  ///< until start()
};

}  // namespace ewc::server
