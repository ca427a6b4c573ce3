// Client-side connection to an ewcd daemon.
//
// One ClientConnection per user process: it performs the hello handshake,
// owns the socket, and demultiplexes completion frames back to the threads
// that launched them (several RemoteFrontends — one per simulated app
// thread — can share one connection; request ids correlate). A dead or
// misbehaving daemon surfaces as failed CompletionReplies, never as a hang:
// every wait is bounded by the caller's timeout.
//
// Resilience (opt-in via ClientOptions::auto_reconnect): when the reader
// thread observes EOF, a read error, or a corrupt frame, it redials under
// the RetryPolicy's capped-exponential/seeded-jitter schedule, re-runs the
// handshake, and replays every launch still awaiting an answer (encoded
// payloads are kept keyed by request_id until answered). The server's
// (owner, request_id) dedup table makes replay idempotent: a launch is
// executed exactly once no matter how many times the wire delivers it. A
// per-connection circuit breaker opens after `breaker_threshold`
// consecutive transport errors and fails calls fast until its cooldown
// elapses (half-open: the next call probes; success closes it again).
// Server admission rejections — ok=false completions for an over-limit
// launch, or a "server full" hello refusal during recovery — are
// backpressure from a live daemon and never count toward the breaker.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/channel.hpp"
#include "common/rng.hpp"
#include "consolidate/protocol.hpp"
#include "net/frame.hpp"
#include "net/retry.hpp"
#include "net/socket.hpp"
#include "server/protocol_wire.hpp"

namespace ewc::server {

struct ClientOptions {
  /// Reconnect + replay instead of failing all waiters on a dead transport.
  bool auto_reconnect = false;
  /// Backoff schedule for reconnect attempts (and initial-connect retries
  /// when auto_reconnect is set).
  net::RetryPolicy retry;
  /// Per-redial budget for one connect_unix attempt during recovery.
  common::Duration dial_timeout = common::Duration::from_seconds(2.0);
  /// Consecutive transport errors before the circuit opens; <=0 disables.
  int breaker_threshold = 8;
  common::Duration breaker_cooldown = common::Duration::from_seconds(1.0);
  /// Seed for the jittered backoff schedule (deterministic per seed).
  std::uint64_t jitter_seed = 0x5eed;
  /// Session nonce sent in the hello; 0 (the default) generates a fresh
  /// one per connection object. The nonce scopes the server's replay/dedup
  /// state to this connection's lifetime, so pin it only to deliberately
  /// resume another connection's session (tests do this to exercise the
  /// server's grace-window eviction) — two live clients must never share
  /// a nonce.
  std::uint64_t session_nonce = 0;
};

class ClientConnection {
 public:
  /// Connect + handshake. Retries while the daemon is still binding, up to
  /// `timeout` (real time). nullptr (with *error) on failure.
  /// `socket_path` may be a comma-separated endpoint list (e.g. a primary
  /// router and its standby): the connect tries each in order, and every
  /// reconnect rotates through the list starting from the last endpoint
  /// that worked — failover rides the existing retry/replay machinery.
  static std::unique_ptr<ClientConnection> connect(
      const std::string& socket_path, const std::string& owner,
      common::Duration timeout, std::string* error);

  /// As above with explicit resilience options. With auto_reconnect the
  /// initial connect also retries up to retry.max_attempts dials.
  static std::unique_ptr<ClientConnection> connect(
      const std::string& socket_path, const std::string& owner,
      common::Duration timeout, ClientOptions options, std::string* error);

  ~ClientConnection();

  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;

  /// Submit one launch and block until the daemon answers (bounded by
  /// `timeout`; non-finite waits indefinitely). The request_id field is
  /// assigned here, and — when the request carries none — so is a fresh
  /// distributed trace_id (mixed deterministically from the session nonce
  /// and request id), which travels on the wire so downstream spans join
  /// this client's trace. Always returns a reply — transport failures come
  /// back as ok=false with an error message.
  /// `on_sent`, when given, runs once the launch has been handed to the
  /// connection (written, or held for replay), before the wait for its
  /// reply — and not at all when the launch is refused before a send.
  consolidate::CompletionReply launch(
      consolidate::LaunchRequest req, common::Duration timeout,
      const std::function<void()>& on_sent = nullptr);

  /// Fire-and-callback launch for load harnesses: assigns the request id,
  /// sends the frame, and returns it immediately (0 if the request was
  /// refused before a send was attempted — breaker open or connection
  /// dead). `on_reply` is invoked exactly once with the completion — on the
  /// reader thread for wire replies, or inline (before this returns) for
  /// immediate failures — so it must be cheap and must not call back into
  /// this connection. Admission rejections arrive as ok=false replies, same
  /// as for launch(). With auto_reconnect the payload stays registered for
  /// replay until answered; without it a failed send fails the callback
  /// inline.
  std::uint64_t launch_async(
      consolidate::LaunchRequest req,
      std::function<void(const consolidate::CompletionReply&)> on_reply);

  /// Ask the daemon to process everything pending; true when it confirms.
  bool flush(common::Duration timeout);

  /// Snapshot the daemon's counters (and optionally histograms). nullopt on
  /// timeout, transport failure, or a pre-stats daemon (which answers the
  /// kStats frame with kError).
  std::optional<StatsReplyMsg> stats(bool include_histograms,
                                     common::Duration timeout) {
    return stats(StatsMsg{0, include_histograms}, timeout);
  }

  /// As above with every kStats part selectable: histograms, the sampler's
  /// time-series rings, the Prometheus text. `request.token` is assigned
  /// here.
  std::optional<StatsReplyMsg> stats(StatsMsg request,
                                     common::Duration timeout);

  /// Ask the daemon to drain and exit (admin path).
  bool request_shutdown();

  /// Live-migration export RPC (router/admin path): snapshot (commit=false)
  /// or drop (commit=true) one replay session on the connected shard.
  /// nullopt on timeout/transport failure or a pre-migration daemon (which
  /// answers with kError).
  std::optional<MigrateExportReplyMsg> migrate_export(std::uint64_t session,
                                                      bool commit,
                                                      common::Duration timeout);

  /// Live-migration import RPC: install a session snapshot on the connected
  /// shard. Same nullopt contract as migrate_export.
  std::optional<MigrateImportReplyMsg> migrate_import(
      const SessionSnapshot& snapshot, common::Duration timeout);

  /// Settings the server announced in the hello handshake.
  const HelloOkMsg& server_settings() const { return settings_; }
  const std::string& owner() const { return owner_; }
  /// The session nonce sent in every hello (initial and reconnect): the
  /// server scopes replay dedup to it, so replays after a reconnect are
  /// idempotent while fresh processes can never hit a predecessor's state.
  std::uint64_t session() const { return session_; }
  bool alive() const { return !dead_.load(); }

  /// Successful reconnects / launches replayed over them (tests, reports).
  std::uint64_t reconnects() const { return reconnects_.load(); }
  std::uint64_t replayed_launches() const { return replayed_.load(); }

  /// Test hook: sever the transport as if the daemon dropped it. With
  /// auto_reconnect the reader recovers and replays; without, waiters fail.
  void inject_disconnect();

 private:
  ClientConnection() = default;
  /// hello/hello_ok exchange on a fresh socket. Shared by connect() and
  /// recovery redials; the same session nonce is sent every time so the
  /// server treats the redial as a resume, not a new client.
  /// `server_refused` (optional) is set when the server answered the hello
  /// with a well-formed kError frame — it is alive and refusing (e.g.
  /// "server full"), which is admission backpressure, not transport death.
  static bool handshake(net::Socket& sock, const std::string& owner,
                        std::uint64_t session, bool replay,
                        common::Duration io_timeout, HelloOkMsg* settings,
                        std::string* error, bool* server_refused = nullptr);
  void reader_loop();
  /// Reader-thread-only: redial + handshake + replay in-flight launches.
  /// True when the connection is live again.
  bool recover(const std::string& why);
  /// Fail every waiter and mark the connection dead.
  void fail_all(const std::string& error);
  /// Fail the token RPCs only: their tokens are connection-scoped and a
  /// frame lost with the old connection will never be answered.
  void fail_pending();
  /// One token RPC: give `request` a fresh token, send it as `type` and
  /// wait for the `reply_type` frame that carries the token back. nullopt
  /// on timeout, transport failure or a kError answer.
  template <class Request, class Reply>
  std::optional<Reply> call(
      MsgType type, MsgType reply_type, Request request,
      std::vector<std::byte> (*encode)(const Request&),
      std::optional<Reply> (*decode)(std::span<const std::byte>),
      common::Duration timeout);
  bool send(MsgType type, std::span<const std::byte> payload);
  /// Sleep in small chunks; false when shutdown interrupted the wait.
  bool interruptible_sleep(common::Duration d);

  // Circuit breaker (all under mu_).
  bool breaker_allows();
  void record_transport_error();
  void record_transport_success();

  net::Socket sock_;
  /// Received bytes not yet parsed into frames (reader thread only): one
  /// recv takes a whole burst of replies.
  net::FrameBuffer rx_;
  /// The endpoint list from the comma-separated --socket spec. endpoint_idx_
  /// is the entry currently connected (connect thread, then reader thread
  /// only — recovery rotates from it through the list).
  std::vector<std::string> endpoints_;
  std::size_t endpoint_idx_ = 0;
  std::string owner_;
  std::uint64_t session_ = 0;  ///< hello session nonce; fixed at connect()
  HelloOkMsg settings_;
  ClientOptions opts_;
  common::Duration io_timeout_ = common::Duration::from_seconds(30.0);
  common::Rng rng_{0};  ///< backoff jitter; connect()/reader thread only

  std::mutex write_mu_;  ///< serializes senders; recovery swaps sock_ under it
  std::mutex mu_;  ///< guards next_id_, waiter maps, replay map, breaker
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t,
           std::shared_ptr<common::Channel<consolidate::CompletionReply>>>
      launch_waiters_;
  /// A token RPC awaiting its reply: the frame type that answers it, and
  /// the hand-off to its caller. deliver(payload) decodes the reply, wakes
  /// the caller and returns false when the payload does not decode;
  /// deliver(nullopt) fails the call (connection death, or a server that
  /// answers with kError).
  struct Pending {
    MsgType reply_type;
    std::function<bool(std::optional<std::span<const std::byte>>)> deliver;
  };
  std::map<std::uint64_t, Pending> pending_;  ///< keyed by token
  /// Encoded kLaunch payloads awaiting an answer, for replay after a
  /// reconnect. Only populated when auto_reconnect is on.
  std::map<std::uint64_t, std::vector<std::byte>> inflight_launches_;
  /// launch_async completion callbacks, keyed by request id; invoked once
  /// (reader thread or fail_all) then erased.
  std::map<std::uint64_t,
           std::function<void(const consolidate::CompletionReply&)>>
      launch_callbacks_;

  int consecutive_failures_ = 0;
  std::chrono::steady_clock::time_point breaker_open_until_{};

  std::atomic<bool> dead_{false};
  std::atomic<bool> shutting_down_{false};
  /// True while the reader thread is inside recover(). Senders racing the
  /// redial fail fast against the shut-down socket; those failures are a
  /// consequence of the one disconnect already counted, so they must not
  /// each advance the breaker.
  std::atomic<bool> recovering_{false};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> replayed_{0};
  std::string death_reason_;
  std::thread reader_;
};

}  // namespace ewc::server
