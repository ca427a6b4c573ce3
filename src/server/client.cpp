#include "server/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "net/endpoint.hpp"
#include "net/frame.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"

namespace ewc::server {

namespace {

/// Session nonce for one ClientConnection lifetime. Uniqueness — not
/// determinism or secrecy — is the requirement: owner names and request-id
/// sequences ARE deterministic across process runs, and the nonce is what
/// keeps the server's replay dedup from answering a fresh process out of a
/// predecessor's cache. pid + wall clock + a process-local counter, spread
/// through a splitmix64 finalizer; never 0 (0 means "no session").
std::uint64_t fresh_session_nonce() {
  static std::atomic<std::uint64_t> counter{0};
  std::uint64_t x = static_cast<std::uint64_t>(::getpid()) << 32;
  x ^= static_cast<std::uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count());
  x += 0x9e3779b97f4a7c15ull * (counter.fetch_add(1) + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

/// Distributed trace id for one launch: the session nonce (already unique
/// per client process lifetime) mixed with the connection-unique request id
/// through a splitmix64 finalizer. Deterministic per (session, request), so
/// a replayed launch keeps its trace id; never 0 (0 means "no trace").
std::uint64_t mix_trace_id(std::uint64_t session, std::uint64_t request_id) {
  std::uint64_t x = session + 0x9e3779b97f4a7c15ull * (request_id + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

struct ClientCounters {
  obs::Counter reconnects, replayed, breaker_trips;
};

/// Split a comma-separated --socket spec into its endpoints. Empty segments
/// are dropped, so a plain single endpoint comes back as a one-entry list
/// and behaves exactly as before.
std::vector<std::string> split_endpoints(const std::string& spec) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t end = spec.find(',', start);
    const std::string part =
        spec.substr(start, end == std::string::npos ? end : end - start);
    if (!part.empty()) out.push_back(part);
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return out;
}

ClientCounters& counters() {
  auto h = [](const char* n) { return obs::Registry::instance().counter(n); };
  static ClientCounters* s = new ClientCounters{
      h("client.reconnects"), h("client.replayed_launches"),
      h("client.breaker_trips")};
  return *s;
}

}  // namespace

bool ClientConnection::handshake(net::Socket& sock, const std::string& owner,
                                 std::uint64_t session, bool replay,
                                 common::Duration io_timeout,
                                 HelloOkMsg* settings, std::string* error,
                                 bool* server_refused) {
  if (server_refused) *server_refused = false;
  const auto deadline = net::Deadline::after(io_timeout);
  std::string err;
  if (net::write_frame(sock, static_cast<std::uint16_t>(MsgType::kHello),
                       encode_hello({kProtocolVersion, owner, session, replay}),
                       deadline, &err) != net::IoStatus::kOk) {
    if (error) *error = "hello: " + err;
    return false;
  }
  net::Frame frame;
  if (net::read_frame(sock, &frame, deadline, &err) != net::IoStatus::kOk) {
    if (error) *error = "hello reply: " + err;
    return false;
  }
  if (frame.type == static_cast<std::uint16_t>(MsgType::kError)) {
    const auto msg = decode_error(frame.payload);
    if (error) *error = "server refused: " + (msg ? msg->message : "?");
    if (server_refused) *server_refused = true;
    return false;
  }
  const auto ok = frame.type == static_cast<std::uint16_t>(MsgType::kHelloOk)
                      ? decode_hello_ok(frame.payload)
                      : std::nullopt;
  if (!ok.has_value()) {
    if (error) *error = "malformed hello reply";
    return false;
  }
  *settings = *ok;
  return true;
}

std::unique_ptr<ClientConnection> ClientConnection::connect(
    const std::string& socket_path, const std::string& owner,
    common::Duration timeout, std::string* error) {
  return connect(socket_path, owner, timeout, ClientOptions{}, error);
}

std::unique_ptr<ClientConnection> ClientConnection::connect(
    const std::string& socket_path, const std::string& owner,
    common::Duration timeout, ClientOptions options, std::string* error) {
  std::unique_ptr<ClientConnection> conn(new ClientConnection());
  conn->endpoints_ = split_endpoints(socket_path);
  conn->owner_ = owner;
  conn->opts_ = options;
  conn->rng_ = common::Rng(options.jitter_seed);
  conn->session_ = options.session_nonce != 0 ? options.session_nonce
                                              : fresh_session_nonce();
  if (conn->endpoints_.empty()) {
    if (error) *error = "empty endpoint list";
    return nullptr;
  }

  // Without auto_reconnect a refused dial is final (connect_unix already
  // rides out a daemon that is still binding); with it, the RetryPolicy
  // also covers scripted connect refusals and daemon restarts. Each attempt
  // walks the whole endpoint list, so a down primary falls through to its
  // standby within the attempt.
  const int max_attempts =
      options.auto_reconnect ? std::max(1, options.retry.max_attempts) : 1;
  std::string err;
  for (int attempt = 1;; ++attempt) {
    for (std::size_t k = 0; k < conn->endpoints_.size(); ++k) {
      const std::size_t idx =
          (conn->endpoint_idx_ + k) % conn->endpoints_.size();
      auto sock = net::connect_endpoint(conn->endpoints_[idx],
                                        net::Deadline::after(timeout), &err);
      if (!sock.has_value()) continue;
      if (handshake(*sock, owner, conn->session_, options.auto_reconnect,
                    conn->io_timeout_, &conn->settings_, &err)) {
        conn->endpoint_idx_ = idx;
        conn->sock_ = std::move(*sock);
        conn->reader_ = std::thread([raw = conn.get()] { raw->reader_loop(); });
        return conn;
      }
    }
    if (attempt >= max_attempts) break;
    const auto backoff = options.retry.backoff(attempt, conn->rng_);
    conn->interruptible_sleep(backoff);
  }
  if (error) *error = err;
  return nullptr;
}

ClientConnection::~ClientConnection() {
  shutting_down_.store(true);
  {
    std::lock_guard lock(write_mu_);
    sock_.shutdown_rw();
  }
  if (reader_.joinable()) reader_.join();
}

void ClientConnection::inject_disconnect() {
  std::lock_guard lock(write_mu_);
  sock_.shutdown_rw();
}

bool ClientConnection::interruptible_sleep(common::Duration d) {
  double left = d.is_finite() ? d.seconds() : 0.0;
  while (left > 0.0) {
    if (shutting_down_.load()) return false;
    const double step = std::min(left, 0.01);
    std::this_thread::sleep_for(std::chrono::duration<double>(step));
    left -= step;
  }
  return !shutting_down_.load();
}

bool ClientConnection::breaker_allows() {
  if (opts_.breaker_threshold <= 0) return true;
  std::lock_guard lock(mu_);
  return std::chrono::steady_clock::now() >= breaker_open_until_;
}

void ClientConnection::record_transport_error() {
  if (opts_.breaker_threshold <= 0) return;
  std::lock_guard lock(mu_);
  ++consecutive_failures_;
  // At or past the threshold every further failure re-opens the breaker:
  // half-open probes that fail trip it again immediately.
  if (consecutive_failures_ >= opts_.breaker_threshold) {
    const auto now = std::chrono::steady_clock::now();
    const auto until =
        now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(
                      opts_.breaker_cooldown.seconds()));
    if (breaker_open_until_ < now) counters().breaker_trips.inc();
    breaker_open_until_ = until;
  }
}

void ClientConnection::record_transport_success() {
  if (opts_.breaker_threshold <= 0) return;
  std::lock_guard lock(mu_);
  consecutive_failures_ = 0;
}

bool ClientConnection::send(MsgType type, std::span<const std::byte> payload) {
  std::lock_guard lock(write_mu_);
  const bool ok =
      net::write_frame(sock_, static_cast<std::uint16_t>(type), payload,
                       net::Deadline::after(io_timeout_),
                       nullptr) == net::IoStatus::kOk;
  if (!ok) {
    // While recovery is in flight every send fails by construction — the
    // recovery's own outcome moves the breaker, not each doomed write.
    if (!recovering_.load()) record_transport_error();
    // Wake the reader out of its blocking read so it notices the dead
    // transport and (if armed) starts recovery.
    if (opts_.auto_reconnect) sock_.shutdown_rw();
  }
  return ok;
}

consolidate::CompletionReply ClientConnection::launch(
    consolidate::LaunchRequest req, common::Duration timeout,
    const std::function<void()>& on_sent) {
  auto fail = [&](const std::string& why) {
    consolidate::CompletionReply reply;
    reply.ok = false;
    reply.error = why;
    reply.request_id = req.request_id;
    return reply;
  };
  if (!breaker_allows()) return fail("circuit breaker open");

  // Client half of the request-lifecycle trace: this wall-clock span and the
  // server's "server.request" span carry the same request_id, so a merged
  // trace shows the queueing + wire time around the daemon's processing.
  obs::ScopedSpan span("client.launch");
  auto waiter =
      std::make_shared<common::Channel<consolidate::CompletionReply>>();
  {
    // dead_ is checked under mu_ *while registering*: fail_all holds mu_ to
    // set dead_ and swap the maps, so a waiter either registers before the
    // swap (and is failed by it) or observes dead_ here — it can never slip
    // in after the swap and hang until timeout.
    std::lock_guard lock(mu_);
    if (dead_.load()) return fail("connection dead: " + death_reason_);
    req.request_id = next_id_++;
    launch_waiters_[req.request_id] = waiter;
  }
  span.set_request_id(req.request_id);
  // Root of the distributed trace: this span is the trace's origin, so its
  // id doubles as the wire parent for everything downstream.
  if (req.trace_id == 0) {
    req.trace_id = mix_trace_id(session_, req.request_id);
    req.parent_span_id = req.trace_id;
  }
  span.set_trace(req.trace_id, 0);
  req.reply = nullptr;  // never crosses the wire
  const auto payload = encode_launch(req);
  bool sent;
  {
    // Registration of the replay payload and the send are one atomic step
    // with respect to recovery (which holds write_mu_ while swapping the
    // socket and replaying): the launch is either replayed or sent directly
    // on the new socket, never both — the server would reject the
    // duplicate id on the same connection.
    std::lock_guard wlock(write_mu_);
    if (opts_.auto_reconnect) {
      std::lock_guard lock(mu_);
      inflight_launches_[req.request_id] = payload;
    }
    sent = net::write_frame(sock_, static_cast<std::uint16_t>(MsgType::kLaunch),
                            payload, net::Deadline::after(io_timeout_),
                            nullptr) == net::IoStatus::kOk;
    if (!sent) {
      if (!recovering_.load()) record_transport_error();
      if (opts_.auto_reconnect) sock_.shutdown_rw();
    }
  }
  if (!sent && !opts_.auto_reconnect) {
    std::lock_guard lock(mu_);
    launch_waiters_.erase(req.request_id);
    return fail("send failed");
  }
  if (on_sent) on_sent();
  // With auto_reconnect a failed send is not fatal: the payload is in the
  // replay map, so the recovery pass resends it and the answer still lands
  // in this waiter.
  auto reply = waiter->receive_for(timeout);
  {
    std::lock_guard lock(mu_);
    launch_waiters_.erase(req.request_id);
    inflight_launches_.erase(req.request_id);
  }
  if (!reply.has_value()) return fail("timed out waiting for completion");
  if (span.active()) {
    char args[96];
    std::snprintf(args, sizeof(args), "\"ok\":%s,\"kernel\":\"%s\"",
                  reply->ok ? "true" : "false",
                  obs::json_escape(req.desc.name).c_str());
    span.set_args(args);
  }
  return *reply;
}

std::uint64_t ClientConnection::launch_async(
    consolidate::LaunchRequest req,
    std::function<void(const consolidate::CompletionReply&)> on_reply) {
  // Async half of the client.launch span: no thread blocks across the wire
  // round-trip, so the span is recorded manually from the callback —
  // [here, reply) — on whichever thread delivers it. The trace id is
  // re-derived from (session, request_id), matching the id stamped on the
  // wire below, so the span joins the same distributed trace.
  if (obs::Tracer::enabled()) {
    const double start_us = obs::Tracer::now_us();
    on_reply = [start_us, session = session_, cb = std::move(on_reply)](
                   const consolidate::CompletionReply& r) {
      obs::SpanEvent ev;
      ev.name = "client.launch";
      ev.request_id = r.request_id;
      if (r.request_id != 0) ev.trace_id = mix_trace_id(session, r.request_id);
      ev.ts_us = start_us;
      ev.dur_us = obs::Tracer::now_us() - start_us;
      ev.args = std::string("\"ok\":") + (r.ok ? "true" : "false") +
                ",\"async\":true";
      obs::Tracer::instance().record(std::move(ev));
      cb(r);
    };
  }
  auto fail_now = [&](std::uint64_t id, const std::string& why) {
    consolidate::CompletionReply reply;
    reply.ok = false;
    reply.error = why;
    reply.request_id = id;
    on_reply(reply);
    return id;
  };
  if (!breaker_allows()) return fail_now(0, "circuit breaker open");
  std::uint64_t id = 0;
  {
    std::lock_guard lock(mu_);
    if (dead_.load()) return fail_now(0, "connection dead: " + death_reason_);
    id = next_id_++;
    launch_callbacks_[id] = std::move(on_reply);
  }
  req.request_id = id;
  if (req.trace_id == 0) {
    req.trace_id = mix_trace_id(session_, id);
    req.parent_span_id = req.trace_id;
  }
  req.reply = nullptr;  // never crosses the wire
  const auto payload = encode_launch(req);
  bool sent;
  {
    // Same atomicity contract as launch(): replay registration and the send
    // are one step with respect to recovery's socket swap + replay pass.
    std::lock_guard wlock(write_mu_);
    if (opts_.auto_reconnect) {
      std::lock_guard lock(mu_);
      inflight_launches_[id] = payload;
    }
    sent = net::write_frame(sock_, static_cast<std::uint16_t>(MsgType::kLaunch),
                            payload, net::Deadline::after(io_timeout_),
                            nullptr) == net::IoStatus::kOk;
    if (!sent) {
      if (!recovering_.load()) record_transport_error();
      if (opts_.auto_reconnect) sock_.shutdown_rw();
    }
  }
  if (!sent && !opts_.auto_reconnect) {
    std::function<void(const consolidate::CompletionReply&)> cb;
    {
      std::lock_guard lock(mu_);
      auto it = launch_callbacks_.find(id);
      if (it == launch_callbacks_.end()) return id;  // fail_all beat us to it
      cb = std::move(it->second);
      launch_callbacks_.erase(it);
    }
    consolidate::CompletionReply reply;
    reply.ok = false;
    reply.error = "send failed";
    reply.request_id = id;
    cb(reply);
  }
  return id;
}

template <class Request, class Reply>
std::optional<Reply> ClientConnection::call(
    MsgType type, MsgType reply_type, Request request,
    std::vector<std::byte> (*encode)(const Request&),
    std::optional<Reply> (*decode)(std::span<const std::byte>),
    common::Duration timeout) {
  if (!breaker_allows()) return std::nullopt;
  auto done = std::make_shared<common::Channel<std::optional<Reply>>>();
  {
    // Registered under mu_ with dead_ checked, as launch() does: fail_all
    // either finds this entry or this call sees dead_.
    std::lock_guard lock(mu_);
    if (dead_.load()) return std::nullopt;
    request.token = next_id_++;
    pending_[request.token] = {
        reply_type,
        [done, decode](std::optional<std::span<const std::byte>> payload) {
          std::optional<Reply> reply;
          if (payload.has_value()) reply = decode(*payload);
          const bool ok = reply.has_value();
          done->send(std::move(reply));
          return ok;
        }};
  }
  std::optional<Reply> reply;
  if (send(type, encode(request))) {
    if (auto got = done->receive_for(timeout)) reply = std::move(*got);
  }
  std::lock_guard lock(mu_);
  pending_.erase(request.token);
  return reply;
}

bool ClientConnection::flush(common::Duration timeout) {
  const auto done = call(MsgType::kFlush, MsgType::kFlushDone, FlushMsg{},
                         encode_flush, decode_flush_done, timeout);
  return done.has_value() && done->ok;
}

std::optional<StatsReplyMsg> ClientConnection::stats(
    StatsMsg request, common::Duration timeout) {
  return call(MsgType::kStats, MsgType::kStatsReply, request, encode_stats,
              decode_stats_reply, timeout);
}

bool ClientConnection::request_shutdown() {
  if (dead_.load()) return false;
  return send(MsgType::kShutdown, encode_shutdown());
}

std::optional<MigrateExportReplyMsg> ClientConnection::migrate_export(
    std::uint64_t session, bool commit, common::Duration timeout) {
  return call(MsgType::kMigrateExport, MsgType::kMigrateExportReply,
              MigrateExportMsg{0, session, commit}, encode_migrate_export,
              decode_migrate_export_reply, timeout);
}

std::optional<MigrateImportReplyMsg> ClientConnection::migrate_import(
    const SessionSnapshot& snapshot, common::Duration timeout) {
  return call(MsgType::kMigrateImport, MsgType::kMigrateImportReply,
              MigrateImportMsg{0, snapshot}, encode_migrate_import,
              decode_migrate_import_reply, timeout);
}

void ClientConnection::fail_all(const std::string& error) {
  std::map<std::uint64_t,
           std::shared_ptr<common::Channel<consolidate::CompletionReply>>>
      launches;
  std::map<std::uint64_t,
           std::function<void(const consolidate::CompletionReply&)>>
      callbacks;
  {
    std::lock_guard lock(mu_);
    death_reason_ = error;
    dead_.store(true);
    launches.swap(launch_waiters_);
    callbacks.swap(launch_callbacks_);
    inflight_launches_.clear();
  }
  const auto failed = [&](std::uint64_t id) {
    consolidate::CompletionReply reply;
    reply.ok = false;
    reply.error = error;
    reply.request_id = id;
    return reply;
  };
  for (auto& [id, waiter] : launches) waiter->send(failed(id));
  for (auto& [id, callback] : callbacks) callback(failed(id));
  // dead_ is already set, so no token RPC can register after this swap.
  fail_pending();
}

void ClientConnection::fail_pending() {
  std::map<std::uint64_t, Pending> pending;
  {
    std::lock_guard lock(mu_);
    pending.swap(pending_);
  }
  for (auto& [token, p] : pending) p.deliver(std::nullopt);
}

bool ClientConnection::recover(const std::string& why) {
  if (!opts_.auto_reconnect || shutting_down_.load()) return false;
  {
    // The old transport is dead, but TCP will happily buffer one more write
    // into it before the peer's RST lands. Shut it down before failing the
    // waiters below, so a flush/stats call racing this recovery fails its
    // send immediately (and its caller retries on the new connection)
    // instead of parking a connection-scoped waiter on a frame that went
    // nowhere until the full timeout expires.
    std::lock_guard wlock(write_mu_);
    sock_.shutdown_rw();
  }
  // Launch waiters survive: their payloads replay onto the new connection
  // and the server's dedup makes that idempotent. Token RPCs are
  // connection-scoped — anything lost with the old stream fails now.
  fail_pending();
  // The disconnect that triggered recovery is one transport error. Each
  // full rotation below that finds NO answering endpoint adds one more —
  // per rotation, not per endpoint, so a dead primary in a two-entry list
  // does not advance the breaker twice as fast as a dead lone server. A
  // handshake the server *answers* with a refusal ("server full", a standby
  // that has not promoted yet) is proof of a live peer and is deliberately
  // excluded: that is admission backpressure, and counting it would let
  // benign overload trip the breaker and strand a session that the very
  // next attempt could resume.
  record_transport_error();
  recovering_.store(true);
  struct ClearRecovering {
    std::atomic<bool>& flag;
    ~ClearRecovering() { flag.store(false); }
  } clear_recovering{recovering_};
  const int max_attempts = std::max(1, opts_.retry.max_attempts);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (!interruptible_sleep(opts_.retry.backoff(attempt, rng_))) return false;
    // Each attempt rotates through the endpoint list starting from the one
    // that last worked: a dead primary router falls through to its standby
    // within the attempt, and a refused handshake (standby not promoted
    // yet, "server full") rotates on without counting as transport death.
    bool peer_answered = false;
    for (std::size_t k = 0; k < endpoints_.size(); ++k) {
      const std::size_t idx = (endpoint_idx_ + k) % endpoints_.size();
      std::string err;
      auto sock = net::connect_endpoint(
          endpoints_[idx], net::Deadline::after(opts_.dial_timeout), &err);
      if (!sock.has_value()) {
        continue;
      }
      HelloOkMsg settings;
      bool refused = false;
      if (!handshake(*sock, owner_, session_, /*replay=*/true, io_timeout_,
                     &settings, &err, &refused)) {
        if (refused) peer_answered = true;
        continue;
      }
      std::map<std::uint64_t, std::vector<std::byte>> replays;
      bool sent_all = true;
      {
        std::lock_guard wlock(write_mu_);
        sock_ = std::move(*sock);
        // Whatever was buffered belongs to the dead stream — a partial
        // frame there would corrupt the first frame of this one.
        rx_.clear();
        settings_ = settings;
        {
          std::lock_guard lock(mu_);
          replays = inflight_launches_;
        }
        for (const auto& [id, payload] : replays) {
          if (net::write_frame(sock_,
                               static_cast<std::uint16_t>(MsgType::kLaunch),
                               payload, net::Deadline::after(io_timeout_),
                               nullptr) != net::IoStatus::kOk) {
            sent_all = false;
            break;
          }
        }
      }
      if (!sent_all) {
        peer_answered = true;  // it accepted the handshake, then died
        record_transport_error();
        continue;
      }
      endpoint_idx_ = idx;
      reconnects_.fetch_add(1);
      replayed_.fetch_add(replays.size());
      counters().reconnects.inc();
      counters().replayed.add(static_cast<double>(replays.size()));
      record_transport_success();
      (void)why;
      return true;
    }
    if (!peer_answered) record_transport_error();
  }
  return false;
}

void ClientConnection::reader_loop() {
  for (;;) {
    net::Frame frame;
    std::string err;
    const auto s =
        net::read_frame(sock_, rx_, &frame, net::Deadline::never(), &err);
    if (s != net::IoStatus::kOk) {
      const std::string why = s == net::IoStatus::kEof
                                  ? "server closed connection"
                                  : "read failed: " + err;
      if (recover(why)) continue;
      return fail_all(why);
    }

    switch (static_cast<MsgType>(frame.type)) {
      case MsgType::kCompletion: {
        const auto reply = decode_completion(frame.payload);
        if (!reply.has_value()) {
          if (recover("malformed completion")) continue;
          return fail_all("malformed completion");
        }
        std::shared_ptr<common::Channel<consolidate::CompletionReply>> waiter;
        std::function<void(const consolidate::CompletionReply&)> callback;
        {
          std::lock_guard lock(mu_);
          auto it = launch_waiters_.find(reply->request_id);
          if (it != launch_waiters_.end()) waiter = it->second;
          auto cit = launch_callbacks_.find(reply->request_id);
          if (cit != launch_callbacks_.end()) {
            callback = std::move(cit->second);
            launch_callbacks_.erase(cit);
          }
          // Answered: a future reconnect must not replay it.
          inflight_launches_.erase(reply->request_id);
        }
        record_transport_success();
        // No waiter: the launcher timed out and moved on; drop it.
        if (waiter) waiter->send(*reply);
        if (callback) callback(*reply);
        break;
      }
      case MsgType::kFlushDone:
      case MsgType::kStatsReply:
      case MsgType::kMigrateExportReply:
      case MsgType::kMigrateImportReply: {
        // Every token reply opens with its request's u64 token. Only the
        // call that asked for this reply type gets the payload; a stray
        // token (its caller timed out and moved on) is dropped.
        const auto type = static_cast<MsgType>(frame.type);
        net::Reader r(frame.payload);
        const std::uint64_t token = r.u64();
        std::optional<Pending> pending;
        if (r.ok()) {
          std::lock_guard lock(mu_);
          const auto it = pending_.find(token);
          if (it != pending_.end() && it->second.reply_type == type) {
            pending = std::move(it->second);
            pending_.erase(it);
          }
        }
        if (r.ok() && (!pending || pending->deliver(frame.payload))) {
          record_transport_success();
          break;
        }
        const std::string why =
            std::string("malformed ") + msg_type_name(type);
        if (recover(why)) continue;
        return fail_all(why);
      }
      case MsgType::kError: {
        const auto msg = decode_error(frame.payload);
        const std::string why = "server error: " + (msg ? msg->message : "?");
        // The server closes the stream after kError; with reconnect armed
        // this is recoverable like any other mid-stream loss.
        if (recover(why)) continue;
        return fail_all(why);
      }
      default: {
        const std::string why =
            "unexpected message type " + std::to_string(frame.type);
        if (recover(why)) continue;
        return fail_all(why);
      }
    }
  }
}

}  // namespace ewc::server
