#include "server/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/log.hpp"
#include "fault/injector.hpp"
#include "net/endpoint.hpp"
#include "net/frame.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"

namespace ewc::server {

namespace {

/// Reactor tick: bounds deadline-sweep latency without busy-waiting.
constexpr common::Duration kTick = common::Duration::from_millis(50.0);

/// The daemon's counters, resolved to atomic cells once: the pump handlers
/// bump these per frame, so each hit is one relaxed atomic add with no
/// registry lock. The `server.*` namespace is documented in docs/SERVER.md.
struct ServerCounters {
  obs::Counter connections_accepted, connections_rejected,
      connections_closed, protocol_errors, admitted, rejected, requests,
      replies, flushes, shutdown_requests, deadline_expired,
      drain_failed_replies, drain_flush_timeouts, replayed_requests,
      parked_replies, accept_backoff, migrate_exports, migrate_imports,
      migrate_refusals, reply_writes;
};

ServerCounters& counters() {
  auto h = [](const char* n) { return obs::Registry::instance().counter(n); };
  static ServerCounters* s = new ServerCounters{
      h("server.connections.accepted"), h("server.connections.rejected"),
      h("server.connections.closed"),   h("server.protocol_errors"),
      h("server.admitted"),             h("server.rejected"),
      h("server.requests"),             h("server.replies"),
      h("server.flushes"),              h("server.shutdown_requests"),
      h("server.deadline_expired"),
      h("server.drain.failed_replies"), h("server.drain.flush_timeouts"),
      h("server.replayed_requests"),    h("server.parked_replies"),
      h("server.accept_backoff"),       h("server.migrate.exports"),
      h("server.migrate.imports"),      h("server.migrate.refusals"),
      h("server.reply_writes")};
  return *s;
}

obs::Histogram* request_latency_hist() {
  static obs::Histogram* hist =
      obs::Registry::instance().histogram("server.request_latency_seconds");
  return hist;
}

}  // namespace

Server::Server(consolidate::Backend& backend, ServerOptions options)
    : backend_(backend), options_(std::move(options)) {}

Server::~Server() {
  if (running_.load()) stop();
  telemetry_.sampler.reset();  // joins the sampler tick thread
  reactor_.reset();  // joins the event loop + pump workers
  backend_replies_->close();
  if (demux_.joinable()) demux_.join();
}

bool Server::start(std::string* error) {
  if (running_.load()) {
    if (error) *error = "server already running";
    return false;
  }
  const auto ep = net::Endpoint::parse(options_.socket_path, error);
  if (!ep.has_value()) return false;
  auto listener =
      ep->is_unix()
          ? net::Listener::bind_unix(ep->path, /*backlog=*/128, error)
          : net::Listener::bind_tcp(ep->host, ep->port, /*backlog=*/128,
                                    error);
  if (!listener.has_value()) return false;
  bound_endpoint_ = listener->name();

  Reactor::Options ropt;
  ropt.workers = options_.workers;
  ropt.tick = kTick;
  ropt.io_timeout = options_.io_timeout;
  ropt.queued_writes = counters().reply_writes;
  Reactor::Handler handler;
  handler.on_open = [this](const Reactor::ConnPtr& c) { on_open(c); };
  handler.on_frame = [this](const Reactor::ConnPtr& c, net::Frame f) {
    on_frame(c, std::move(f));
  };
  handler.on_close = [this](const Reactor::ConnPtr& c, CloseReason r,
                            const std::string& m) { on_close(c, r, m); };
  handler.on_accept_backoff = [this] {
    counters().accept_backoff.inc();
    common::log_info("ewcd: accept backoff (fd pressure)");
  };
  handler.on_tick = [this] { on_tick(); };
  handler.on_shutdown = [this] { drain(); };
  handler.on_stopped = [this] {
    running_.store(false);
    {
      std::lock_guard lock(stopped_mu_);
      stopped_ = true;
    }
    stopped_cv_.notify_all();
  };
  reactor_ = std::make_unique<Reactor>(ropt, std::move(handler));

  {
    std::lock_guard lock(stopped_mu_);
    stopped_ = false;
  }
  running_.store(true);
  start_telemetry();
  if (!reactor_->start(std::move(*listener), error)) {
    running_.store(false);
    {
      std::lock_guard lock(stopped_mu_);
      stopped_ = true;
    }
    return false;
  }
  demux_ = std::thread([this] { demux_loop(); });
  return true;
}

void Server::start_telemetry() {
  auto& registry = obs::Registry::instance();
  telemetry_.started_at = std::chrono::steady_clock::now();
  telemetry_.stats = [] { return obs::Registry::instance().snapshot(); };
  telemetry_.stats_requests = registry.counter("server.stats_requests");
  telemetry_.metrics_requests = registry.counter("server.metrics_requests");
  telemetry_.interval_seconds = options_.metrics_interval;
  telemetry_.gauges = [this] {
    return std::map<std::string, double>{
        {"server.max_clients", static_cast<double>(options_.max_clients)},
        {"server.connections.live",
         static_cast<double>(active_connections())}};
  };
  if (options_.metrics_interval <= 0.0) return;
  auto sampler = std::make_unique<obs::Sampler>(options_.metrics_history);
  auto counter = [&registry](const char* name) {
    obs::Counter h = registry.counter(name);
    return [h] { return h.value(); };
  };
  sampler->add_rate("rps", counter("server.replies"));
  sampler->add_rate("power_watts", counter("backend.total_energy_joules"));
  sampler->add_ratio("joules_per_request",
                     counter("backend.total_energy_joules"),
                     counter("server.replies"));
  sampler->add_histogram_percentile(
      "p95_seconds", [] { return request_latency_hist()->snapshot(); },
      95.0);
  sampler->add_gauge("inflight", [] {
    return inflight([](const std::string& name) {
      return obs::Registry::instance().counter(name).value();
    });
  });
  // Cumulative gauges alongside the derived rates: a one-shot scrape can
  // compute run-average joules/request (energy / requests) without any
  // interval sensitivity.
  sampler->add_gauge("energy_joules", counter("backend.total_energy_joules"));
  sampler->add_gauge("requests", counter("server.replies"));
  sampler->start(options_.metrics_interval);
  telemetry_.sampler = std::move(sampler);
}

void Server::notify_stop() {
  if (reactor_ != nullptr) reactor_->notify_stop();
}

void Server::wait() {
  std::unique_lock lock(stopped_mu_);
  stopped_cv_.wait(lock, [&] { return stopped_; });
}

void Server::stop() {
  notify_stop();
  wait();
}

int Server::active_connections() const {
  std::lock_guard lock(conns_mu_);
  int n = 0;
  for (const auto& [id, ctx] : conns_) {
    if (ctx->state.load() != ConnCtx::State::kRejecting) ++n;
  }
  return n;
}

void Server::on_open(const Reactor::ConnPtr& conn) {
  auto ctx = std::make_shared<ConnCtx>();
  ctx->conn = conn;
  ctx->hello_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.io_timeout.seconds()));
  conn->set_ctx(ctx);
  const bool full = active_connections() >= options_.max_clients;
  if (full) {
    // Turn the connection away explicitly rather than letting it hang —
    // but only after its hello arrives: replying before the client sent
    // anything could RST the socket and lose the error frame.
    ctx->state.store(ConnCtx::State::kRejecting);
    counters().connections_rejected.inc();
  } else {
    counters().connections_accepted.inc();
  }
  std::lock_guard lock(conns_mu_);
  conns_.emplace(conn->id(), std::move(ctx));
}

void Server::on_frame(const Reactor::ConnPtr& conn, net::Frame frame) {
  auto ctx = std::static_pointer_cast<ConnCtx>(conn->ctx());
  if (ctx == nullptr) return;
  switch (ctx->state.load()) {
    case ConnCtx::State::kRejecting: {
      conn->send(static_cast<std::uint16_t>(MsgType::kError),
                 encode_error({"server full"}));
      ctx->state.store(ConnCtx::State::kClosed);
      conn->close_async();
      return;
    }
    case ConnCtx::State::kAwaitHello:
      handle_hello(conn, ctx, frame);
      return;
    case ConnCtx::State::kServing:
      break;
    case ConnCtx::State::kClosed:
      return;
  }
  switch (static_cast<MsgType>(frame.type)) {
    case MsgType::kLaunch:
      handle_launch(conn, ctx, frame);
      break;
    case MsgType::kFlush:
      handle_flush(conn, frame);
      break;
    case MsgType::kShutdown:
      counters().shutdown_requests.inc();
      notify_stop();
      break;
    case MsgType::kStats:
    case MsgType::kMetrics:
      if (!answer_telemetry(conn, frame, telemetry_)) {
        counters().protocol_errors.inc();
      }
      break;
    case MsgType::kMigrateExport:
      handle_migrate_export(conn, frame);
      break;
    case MsgType::kMigrateImport:
      handle_migrate_import(conn, frame);
      break;
    default: {
      counters().protocol_errors.inc();
      conn->send(static_cast<std::uint16_t>(MsgType::kError),
                 encode_error({std::string("unexpected message type ") +
                               std::to_string(frame.type)}));
      conn->close_async();
      break;
    }
  }
}

void Server::handle_hello(const Reactor::ConnPtr& conn, const CtxPtr& ctx,
                          const net::Frame& frame) {
  const auto fail = [&](const char* why) {
    counters().protocol_errors.inc();
    conn->send(static_cast<std::uint16_t>(MsgType::kError),
               encode_error({why}));
    conn->close_async();
  };
  if (frame.type != static_cast<std::uint16_t>(MsgType::kHello)) {
    return fail("expected hello");
  }
  const auto hello = decode_hello(frame.payload);
  if (!hello.has_value() || hello->version != kProtocolVersion) {
    return fail("unsupported protocol version");
  }
  ctx->owner = hello->owner;
  // A replay session needs a nonzero nonce: without one the dedup key
  // cannot distinguish client process lifetimes, and serving a cached
  // reply to a fresh process reusing old identities would be wrong.
  ctx->session = hello->session;
  ctx->replay = hello->session != 0 && hello->replay;
  register_session(*ctx);
  ctx->state.store(ConnCtx::State::kServing);
  HelloOkMsg ok;
  ok.inflight_limit = static_cast<std::uint32_t>(options_.inflight_limit);
  ok.deadline_micros =
      static_cast<std::uint64_t>(options_.request_deadline.micros());
  ok.argument_batching = backend_.options().optimizations.argument_batching;
  if (!conn->send(static_cast<std::uint16_t>(MsgType::kHelloOk),
                  encode_hello_ok(ok))) {
    conn->close_async();
  }
}

void Server::send_completion_error(const Reactor::ConnPtr& conn,
                                   std::uint64_t request_id,
                                   const std::string& error) {
  consolidate::CompletionReply reply;
  reply.ok = false;
  reply.error = error;
  reply.request_id = request_id;
  conn->send(static_cast<std::uint16_t>(MsgType::kCompletion),
             encode_completion(reply));
}

void Server::handle_launch(const Reactor::ConnPtr& conn, const CtxPtr& ctx,
                           const net::Frame& frame) {
  auto req = decode_launch(frame.payload);
  if (!req.has_value()) {
    counters().protocol_errors.inc();
    conn->send(static_cast<std::uint16_t>(MsgType::kError),
               encode_error({"malformed launch"}));
    conn->close_async();
    return;
  }
  const std::uint64_t id = req->request_id;
  const std::string req_owner = req->owner;
  // Every span/instant recorded while handling this launch inherits the
  // wire's distributed-trace context (0/0 = none, a no-op).
  obs::TraceScope trace_scope(req->trace_id, req->parent_span_id);
  if (auto a = fault::hit("server.admit");
      a.kind == fault::ActionKind::kStall ||
      a.kind == fault::ActionKind::kDelay) {
    fault::sleep_for(a.duration);
  }
  if (draining_.load()) {
    send_completion_error(conn, id, "server draining");
    counters().rejected.inc();
    return;
  }

  const auto make_deadline = [&] {
    std::optional<std::chrono::steady_clock::time_point> deadline;
    if (options_.request_deadline > common::Duration::zero()) {
      deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(
                  options_.request_deadline.seconds()));
    }
    return deadline;
  };

  // Replay dedup: a reconnecting client resends every unanswered launch.
  // An already-answered one is served from its session's completed log;
  // one still in the backend has its route re-pointed at this connection —
  // never re-forwarded, so it executes exactly once and batch output stays
  // bit-identical. Both lookups are scoped by the session nonce, so a
  // fresh client process reusing the same owner names and request ids can
  // never be answered from a previous process's state.
  std::optional<consolidate::CompletionReply> cached;
  bool inflight_replay = false;
  {
    std::lock_guard lock(route_mu_);
    if (ctx->replay) {
      const auto sess = sessions_.find(ctx->session);
      if (sess != sessions_.end()) {
        const auto hit = sess->second.replies.find(id);
        if (hit != sess->second.replies.end()) cached = hit->second;
      }
    }
    if (!cached.has_value()) {
      const auto route =
          routes_.find(RequestKey{ctx->session, req_owner, id});
      if (route != routes_.end()) {
        const auto current = route->second.ctx.lock();
        if (current == nullptr || current.get() != ctx.get()) {
          route->second.ctx = ctx;
          inflight_replay = true;
        }
        // Same live connection: fall through to admission, which rejects
        // the duplicate id.
      }
    }
  }
  if (cached.has_value()) {
    counters().replayed_requests.inc();
    if (conn->send(static_cast<std::uint16_t>(MsgType::kCompletion),
                   encode_completion(*cached))) {
      counters().replies.inc();
      counters().reply_writes.inc();
    }
    obs::instant("server.replay", id,
                 "\"owner\":\"" + obs::json_escape(req_owner) +
                     "\",\"from\":\"completed\"");
    return;
  }
  if (inflight_replay) {
    {
      std::lock_guard lock(ctx->mu);
      ctx->outstanding.emplace(
          id, Outstanding{req_owner, make_deadline(), obs::Tracer::now_us(),
                          req->trace_id, req->parent_span_id});
    }
    counters().replayed_requests.inc();
    obs::instant("server.replay", id,
                 "\"owner\":\"" + obs::json_escape(req_owner) +
                     "\",\"from\":\"inflight\"");
    return;
  }

  // Admission control: bounded unanswered launches per client.
  bool admitted = false;
  const double admitted_at_us = obs::Tracer::now_us();
  {
    std::lock_guard lock(ctx->mu);
    if (static_cast<int>(ctx->outstanding.size()) < options_.inflight_limit) {
      admitted = ctx->outstanding
                     .emplace(id, Outstanding{req_owner, make_deadline(),
                                              admitted_at_us, req->trace_id,
                                              req->parent_span_id})
                     .second;
    }
  }
  if (!admitted) {
    send_completion_error(
        conn, id,
        "rejected: in-flight limit (" +
            std::to_string(options_.inflight_limit) +
            ") exceeded or duplicate request id");
    counters().rejected.inc();
    obs::instant("server.reject", id);
    return;
  }
  req->reply = backend_replies_;
  req->session = ctx->session;
  {
    std::lock_guard lock(route_mu_);
    routes_[RequestKey{ctx->session, req_owner, id}] =
        Route{ctx, req->trace_id, req->parent_span_id, admitted_at_us};
  }
  if (!backend_.channel().send(std::move(*req))) {
    {
      std::lock_guard lock(ctx->mu);
      ctx->outstanding.erase(id);
    }
    {
      std::lock_guard lock(route_mu_);
      routes_.erase(RequestKey{ctx->session, req_owner, id});
    }
    send_completion_error(conn, id, "backend unavailable");
    counters().rejected.inc();
    return;
  }
  counters().requests.inc();
  counters().admitted.inc();
  obs::instant("server.admit", id,
               "\"owner\":\"" + obs::json_escape(ctx->owner) + "\"");
}

void Server::handle_flush(const Reactor::ConnPtr& conn,
                          const net::Frame& frame) {
  const auto flush = decode_flush(frame.payload);
  if (!flush.has_value()) {
    counters().protocol_errors.inc();
    conn->send(static_cast<std::uint16_t>(MsgType::kError),
               encode_error({"malformed flush"}));
    conn->close_async();
    return;
  }
  counters().flushes.inc();
  auto done = std::make_shared<common::Channel<bool>>();
  FlushDoneMsg reply{flush->token, false};
  if (backend_.channel().send(consolidate::FlushRequest{done})) {
    // Blocks this pump worker (bounded by drain_timeout); the pool keeps
    // other connections moving meanwhile.
    reply.ok = done->receive_for(options_.drain_timeout).has_value();
  }
  conn->send(static_cast<std::uint16_t>(MsgType::kFlushDone),
             encode_flush_done(reply));
}

void Server::handle_migrate_export(const Reactor::ConnPtr& conn,
                                   const net::Frame& frame) {
  const auto req = decode_migrate_export(frame.payload);
  if (!req.has_value()) {
    counters().protocol_errors.inc();
    conn->send(static_cast<std::uint16_t>(MsgType::kError),
               encode_error({"malformed migrate export"}));
    conn->close_async();
    return;
  }
  MigrateExportReplyMsg reply;
  reply.token = req->token;
  if (auto a = fault::hit("server.migrate")) {
    if (a.kind == fault::ActionKind::kStall ||
        a.kind == fault::ActionKind::kDelay) {
      fault::sleep_for(a.duration);
    } else if (a.kind == fault::ActionKind::kClose) {
      // Torn export: the socket dies mid-handoff. Nothing was mutated yet,
      // so the source stays authoritative.
      conn->close_async();
      return;
    } else {
      reply.error = "injected fault";
      counters().migrate_refusals.inc();
      conn->send(static_cast<std::uint16_t>(MsgType::kMigrateExportReply),
                 encode_migrate_export_reply(reply));
      return;
    }
  }
  {
    std::lock_guard lock(route_mu_);
    const auto it =
        req->session == 0 ? sessions_.end() : sessions_.find(req->session);
    if (req->commit) {
      // The router acked the import on the target: drop our copy. An
      // already-gone session makes the commit an idempotent no-op.
      if (it != sessions_.end()) sessions_.erase(it);
      reply.ok = true;
      counters().migrate_exports.inc();
    } else if (it == sessions_.end()) {
      reply.error = "unknown session";
      counters().migrate_refusals.inc();
    } else {
      // Refuse while any launch of this session is still in the backend:
      // the completed log alone would not be the whole dedup state.
      const auto route = routes_.lower_bound(RequestKey{req->session, "", 0});
      if (route != routes_.end() &&
          std::get<0>(route->first) == req->session) {
        reply.error = "session busy";
        counters().migrate_refusals.inc();
      } else {
        const SessionState& s = it->second;
        reply.ok = true;
        reply.snapshot.session = req->session;
        reply.snapshot.entries.reserve(s.order.size());
        for (const std::uint64_t id : s.order) {
          const auto hit = s.replies.find(id);
          if (hit == s.replies.end()) continue;
          SessionSnapshot::Entry e;
          e.request_id = id;
          e.owner = hit->second.owner;
          e.ok = hit->second.ok;
          e.error = hit->second.error;
          e.finish_seconds = hit->second.finish_time.seconds();
          e.where = static_cast<std::uint8_t>(hit->second.where);
          reply.snapshot.entries.push_back(std::move(e));
        }
      }
    }
  }
  conn->send(static_cast<std::uint16_t>(MsgType::kMigrateExportReply),
             encode_migrate_export_reply(reply));
}

void Server::handle_migrate_import(const Reactor::ConnPtr& conn,
                                   const net::Frame& frame) {
  const auto req = decode_migrate_import(frame.payload);
  if (!req.has_value()) {
    counters().protocol_errors.inc();
    conn->send(static_cast<std::uint16_t>(MsgType::kError),
               encode_error({"malformed migrate import"}));
    conn->close_async();
    return;
  }
  MigrateImportReplyMsg reply;
  reply.token = req->token;
  if (auto a = fault::hit("server.migrate")) {
    if (a.kind == fault::ActionKind::kStall ||
        a.kind == fault::ActionKind::kDelay) {
      fault::sleep_for(a.duration);
    } else if (a.kind == fault::ActionKind::kClose) {
      conn->close_async();
      return;
    } else {
      reply.error = "injected fault";
      conn->send(static_cast<std::uint16_t>(MsgType::kMigrateImportReply),
                 encode_migrate_import_reply(reply));
      return;
    }
  }
  if (req->snapshot.session == 0) {
    reply.error = "session 0 cannot migrate";
    conn->send(static_cast<std::uint16_t>(MsgType::kMigrateImportReply),
               encode_migrate_import_reply(reply));
    return;
  }
  {
    std::lock_guard lock(route_mu_);
    auto [it, inserted] = sessions_.try_emplace(req->snapshot.session);
    SessionState& s = it->second;
    if (inserted) {
      // No live connection owns this session yet: start the idle clock now
      // so the default-constructed time_point cannot read as "idle since
      // the epoch" and get the import swept on the next tick.
      s.idle_since = std::chrono::steady_clock::now();
    }
    // First write wins, same rule as record_completed_locked: anything this
    // shard already answered for the session keeps its local answer.
    for (const auto& e : req->snapshot.entries) {
      consolidate::CompletionReply r;
      r.request_id = e.request_id;
      r.owner = e.owner;
      r.session = req->snapshot.session;
      r.ok = e.ok;
      r.error = e.error;
      r.finish_time = common::Duration::from_seconds(e.finish_seconds);
      r.where = static_cast<consolidate::CompletionReply::Where>(e.where);
      if (!s.replies.emplace(e.request_id, std::move(r)).second) continue;
      s.order.push_back(e.request_id);
    }
    while (s.order.size() > kCompletedCapPerSession) {
      s.replies.erase(s.order.front());
      s.order.pop_front();
    }
  }
  reply.ok = true;
  counters().migrate_imports.inc();
  conn->send(static_cast<std::uint16_t>(MsgType::kMigrateImportReply),
             encode_migrate_import_reply(reply));
}

void Server::on_close(const Reactor::ConnPtr& conn, CloseReason reason,
                      const std::string& msg) {
  auto ctx = std::static_pointer_cast<ConnCtx>(conn->ctx());
  if (ctx == nullptr) return;
  const auto state = ctx->state.load();
  if (reason == CloseReason::kError || reason == CloseReason::kProtocol) {
    // The stream died uncleanly under the peer: tell it why, best-effort,
    // mirroring the old reader's error reply before teardown.
    counters().protocol_errors.inc();
    conn->send(static_cast<std::uint16_t>(MsgType::kError),
               encode_error({msg.empty() ? "read error" : msg}));
  }
  if (state == ConnCtx::State::kServing) release_session(*ctx);
  if (state != ConnCtx::State::kRejecting) {
    counters().connections_closed.inc();
  }
  ctx->state.store(ConnCtx::State::kClosed);
  std::lock_guard lock(conns_mu_);
  conns_.erase(conn->id());
}

void Server::on_tick() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<CtxPtr> snapshot;
  {
    std::lock_guard lock(conns_mu_);
    snapshot.reserve(conns_.size());
    for (const auto& [id, ctx] : conns_) snapshot.push_back(ctx);
  }
  for (const auto& ctx : snapshot) {
    auto state = ctx->state.load();
    // Handshake timeout: a connection that never sent its hello (or a
    // rejected one that never sent anything) is closed once io_timeout
    // passes — the old blocking-read handshake bound, kept under epoll.
    if ((state == ConnCtx::State::kAwaitHello ||
         state == ConnCtx::State::kRejecting) &&
        now >= ctx->hello_deadline) {
      if (ctx->state.compare_exchange_strong(state,
                                             ConnCtx::State::kClosed)) {
        auto conn = ctx->conn.lock();
        if (conn != nullptr) {
          const bool rejecting = state == ConnCtx::State::kRejecting;
          conn->post([conn, rejecting] {
            if (!rejecting) {
              counters().protocol_errors.inc();
              conn->send(static_cast<std::uint16_t>(MsgType::kError),
                         encode_error({"expected hello"}));
            }
            conn->close_async();
          });
        }
      }
      continue;
    }
    if (state != ConnCtx::State::kServing ||
        options_.request_deadline <= common::Duration::zero()) {
      continue;
    }
    // Per-request deadline sweep (was the per-connection writer's tick).
    std::vector<std::pair<std::uint64_t, std::string>> expired;
    {
      std::lock_guard lock(ctx->mu);
      for (const auto& [id, entry] : ctx->outstanding) {
        if (entry.deadline.has_value() && now >= *entry.deadline) {
          expired.emplace_back(id, entry.owner);
        }
      }
      for (const auto& [id, owner] : expired) ctx->outstanding.erase(id);
    }
    if (expired.empty()) continue;
    auto conn = ctx->conn.lock();
    for (const auto& [id, owner] : expired) {
      // Record the error as this key's answer (and drop the route) so the
      // eventual backend reply is parked, and a replay of the request is
      // told the same thing the client was.
      consolidate::CompletionReply expired_reply;
      expired_reply.ok = false;
      expired_reply.error = "request deadline exceeded";
      expired_reply.request_id = id;
      expired_reply.owner = owner;
      expired_reply.session = ctx->session;
      {
        std::lock_guard lock(route_mu_);
        record_completed_locked(expired_reply);
      }
      counters().deadline_expired.inc();
      obs::instant("server.deadline_expired", id);
      if (conn != nullptr) {
        // The send happens on the connection's serialized pump: the
        // reactor thread must never block on a stuck peer.
        const std::uint64_t rid = id;
        conn->post([this, conn, rid] {
          send_completion_error(conn, rid, "request deadline exceeded");
        });
      }
    }
  }
  std::lock_guard lock(route_mu_);
  sweep_sessions_locked();
}

void Server::record_completed_locked(
    const consolidate::CompletionReply& reply) {
  routes_.erase(RequestKey{reply.session, reply.owner, reply.request_id});
  // Only sessions that negotiated replay have an entry here: one-shot
  // clients' replies are never recorded, so they cost no daemon memory.
  const auto it = sessions_.find(reply.session);
  if (reply.session == 0 || it == sessions_.end()) return;
  SessionState& s = it->second;
  // First write wins: if the sweep already recorded a deadline/drain error
  // for this key, the client was answered with it — a replay must see the
  // same answer, not a different late one.
  if (!s.replies.emplace(reply.request_id, reply).second) return;
  s.order.push_back(reply.request_id);
  while (s.order.size() > kCompletedCapPerSession) {
    s.replies.erase(s.order.front());
    s.order.pop_front();
  }
}

void Server::sweep_sessions_locked() {
  const auto now = std::chrono::steady_clock::now();
  const auto grace =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.replay_grace.seconds()));
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->second.live_connections == 0 &&
        now - it->second.idle_since >= grace) {
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::register_session(const ConnCtx& ctx) {
  if (!ctx.replay) return;
  std::lock_guard lock(route_mu_);
  // Piggyback eviction on hellos: every new client pays a cheap sweep, so
  // stale sessions never outlive the grace window by more than a tick.
  sweep_sessions_locked();
  ++sessions_[ctx.session].live_connections;
}

void Server::release_session(const ConnCtx& ctx) {
  if (!ctx.replay) return;
  std::lock_guard lock(route_mu_);
  const auto it = sessions_.find(ctx.session);
  if (it == sessions_.end()) return;
  if (--it->second.live_connections <= 0) {
    it->second.live_connections = 0;
    it->second.idle_since = std::chrono::steady_clock::now();
  }
}

void Server::demux_loop() {
  for (;;) {
    std::vector<consolidate::CompletionReply> replies =
        backend_replies_->receive_all();
    if (replies.empty()) break;  // closed and drained: shutting down
    // Route everything this wake took under one lock hold, grouping the
    // replies by connection in backend order.
    std::vector<Route> routes(replies.size());
    std::vector<std::pair<CtxPtr, std::vector<std::size_t>>> by_conn;
    std::vector<std::size_t> parked;
    {
      std::lock_guard lock(route_mu_);
      for (std::size_t i = 0; i < replies.size(); ++i) {
        const auto& reply = replies[i];
        CtxPtr target;
        const auto it = routes_.find(
            RequestKey{reply.session, reply.owner, reply.request_id});
        if (it != routes_.end()) {
          routes[i] = it->second;
          target = routes[i].ctx.lock();
        }
        record_completed_locked(reply);
        if (target == nullptr) {
          parked.push_back(i);
          continue;
        }
        auto g = std::find_if(by_conn.begin(), by_conn.end(),
                              [&](const auto& c) { return c.first == target; });
        if (g == by_conn.end()) {
          g = by_conn.insert(by_conn.end(), {std::move(target), {}});
        }
        g->second.push_back(i);
      }
    }
    for (const auto& [ctx, members] : by_conn) {
      if (!deliver_batch(ctx, replies, members)) {
        parked.insert(parked.end(), members.begin(), members.end());
      }
    }
    for (const std::size_t i : parked) {
      counters().parked_replies.inc();
      // The connection died before its answer did (a forwarding router
      // crash is the common cause). The work still ran and the parked
      // reply will answer the client's replay, so the request-lifecycle
      // span must not vanish with the connection — emit it here from the
      // route's copy of the trace correlation.
      if (obs::Tracer::enabled() && routes[i].trace_id != 0) {
        const double now_us = obs::Tracer::now_us();
        obs::SpanEvent ev;
        ev.name = "server.request";
        ev.ts_us = routes[i].admitted_at_us;
        ev.dur_us = now_us - routes[i].admitted_at_us;
        ev.request_id = replies[i].request_id;
        ev.trace_id = routes[i].trace_id;
        ev.parent_span_id = routes[i].parent_span_id;
        ev.args = std::string("\"ok\":") +
                  (replies[i].ok ? "true" : "false") + ",\"delivered\":false";
        obs::Tracer::instance().record(std::move(ev));
      }
    }
  }
}

bool Server::deliver_batch(
    const CtxPtr& ctx, const std::vector<consolidate::CompletionReply>& replies,
    const std::vector<std::size_t>& members) {
  auto conn = ctx->conn.lock();
  if (conn == nullptr || conn->read_ended()) return false;
  if (fault::Injector::instance().armed()) {
    // Fault sites stay per frame: the connection's pump sends each reply
    // on its own, through server.reply and net.frame.send. If the client
    // died in the meantime the post fails and the replies stay parked in
    // the completed log for a future replay.
    std::vector<consolidate::CompletionReply> batch;
    batch.reserve(members.size());
    for (const std::size_t i : members) batch.push_back(replies[i]);
    return conn->post([this, conn, ctx, batch = std::move(batch)] {
      for (const auto& reply : batch) deliver_completion(conn, ctx, reply);
    });
  }
  // Take the still-outstanding replies (the rest already got a deadline /
  // drain error) and encode their frames back to back.
  std::vector<std::pair<const consolidate::CompletionReply*, Outstanding>>
      live;
  live.reserve(members.size());
  {
    std::lock_guard lock(ctx->mu);
    for (const std::size_t i : members) {
      const auto it = ctx->outstanding.find(replies[i].request_id);
      if (it == ctx->outstanding.end()) continue;
      live.emplace_back(&replies[i], std::move(it->second));
      ctx->outstanding.erase(it);
    }
  }
  if (live.empty()) return true;
  std::vector<std::byte> frames;
  for (const auto& [reply, entry] : live) {
    net::append_frame(frames, static_cast<std::uint16_t>(MsgType::kCompletion),
                      encode_completion(*reply));
  }
  const bool delivered =
      conn->write(std::move(frames)) != Reactor::Conn::WriteStatus::kFailed;
  if (delivered) counters().replies.add(static_cast<double>(live.size()));
  for (const auto& [reply, entry] : live) {
    finish_request(*reply, entry, delivered);
  }
  return true;
}

void Server::deliver_completion(const Reactor::ConnPtr& conn,
                                const CtxPtr& ctx,
                                const consolidate::CompletionReply& reply) {
  std::optional<Outstanding> entry;
  {
    std::lock_guard lock(ctx->mu);
    auto it = ctx->outstanding.find(reply.request_id);
    if (it != ctx->outstanding.end()) {
      entry = std::move(it->second);
      ctx->outstanding.erase(it);
    }
  }
  // A reply whose id is no longer outstanding already got a deadline /
  // drain error; dropping the late real answer keeps the stream sane.
  if (!entry.has_value()) return;
  bool drop = false;
  if (auto a = fault::hit("server.reply")) {
    if (a.kind == fault::ActionKind::kDelay ||
        a.kind == fault::ActionKind::kStall) {
      fault::sleep_for(a.duration);
    } else if (a.kind == fault::ActionKind::kDrop) {
      // Lost reply: the client's deadline (or its replay after a
      // reconnect — the completed log still has the answer) recovers.
      drop = true;
    }
  }
  bool delivered = false;
  if (!drop && !conn->closing() &&
      conn->send(static_cast<std::uint16_t>(MsgType::kCompletion),
                 encode_completion(reply))) {
    counters().replies.inc();
    counters().reply_writes.inc();
    delivered = true;
  }
  finish_request(reply, *entry, delivered);
}

void Server::finish_request(const consolidate::CompletionReply& reply,
                            const Outstanding& entry, bool delivered) {
  const double now_us = obs::Tracer::now_us();
  request_latency_hist()->record((now_us - entry.admitted_at_us) * 1e-6);
  if (obs::Tracer::enabled()) {
    // The server-side request-lifecycle span: admission to completion,
    // correlated with the client's launch span by request_id. Emitted even
    // when the reply could not be written back (the forwarding router died
    // first): the work DID run, the completed log holds the answer for the
    // client's replay, and dropping the span would leave a hole in the
    // stitched cross-process trace.
    obs::SpanEvent ev;
    ev.name = "server.request";
    ev.ts_us = entry.admitted_at_us;
    ev.dur_us = now_us - entry.admitted_at_us;
    ev.request_id = reply.request_id;
    ev.trace_id = entry.trace_id;
    ev.parent_span_id = entry.parent_span_id;
    ev.args = std::string("\"ok\":") + (reply.ok ? "true" : "false") +
              ",\"delivered\":" + (delivered ? "true" : "false");
    obs::Tracer::instance().record(std::move(ev));
  }
}

void Server::drain() {
  draining_.store(true);
  // The reactor already closed the listener (unlinking a UNIX socket path).
  std::vector<CtxPtr> snapshot;
  {
    std::lock_guard lock(conns_mu_);
    for (const auto& [id, ctx] : conns_) snapshot.push_back(ctx);
  }

  // Fail outstanding replies with an error (recording the error as each
  // key's final answer so the flushed batch's late replies are parked)...
  for (const auto& ctx : snapshot) {
    std::vector<std::pair<std::uint64_t, std::string>> ids;
    {
      std::lock_guard lock(ctx->mu);
      for (const auto& [id, entry] : ctx->outstanding) {
        ids.emplace_back(id, entry.owner);
      }
      ctx->outstanding.clear();
    }
    auto conn = ctx->conn.lock();
    for (const auto& [id, owner] : ids) {
      consolidate::CompletionReply drained;
      drained.ok = false;
      drained.error = "server draining";
      drained.request_id = id;
      drained.owner = owner;
      drained.session = ctx->session;
      {
        std::lock_guard lock(route_mu_);
        record_completed_locked(drained);
      }
      if (conn != nullptr) {
        send_completion_error(conn, id, "server draining");
      }
      counters().drain_failed_replies.inc();
    }
  }

  // ...and flush the pending batch (its replies were failed above and are
  // dropped; the batch still executes so the backend's reports are
  // complete) bounded by drain_timeout. The reactor closes every
  // connection right after this handler returns.
  auto done = std::make_shared<common::Channel<bool>>();
  if (backend_.channel().send(consolidate::FlushRequest{done})) {
    if (!done->receive_for(options_.drain_timeout).has_value()) {
      common::log_info("ewcd: drain flush timed out");
      counters().drain_flush_timeouts.inc();
    }
  }
}

}  // namespace ewc::server
