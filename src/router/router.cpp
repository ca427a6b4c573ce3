#include "router/router.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/log.hpp"
#include "fault/injector.hpp"
#include "net/endpoint.hpp"
#include "net/frame.hpp"
#include "net/wire.hpp"
#include "obs/registry.hpp"
#include "obs/shard_scope.hpp"
#include "obs/tracer.hpp"

namespace ewc::router {

namespace {

using server::MsgType;
using server::Reactor;

struct RouterCounters {
  obs::Counter placed, placement_failures, forwarded, returned,
      upstream_closed, breaker_trips, poll_failures, accept_backoff,
      sessions_migrated, migrations_failed, sessions_rehomed, sync_pulls,
      standby_refusals, standby_promotions, forward_writes;
};

RouterCounters& counters() {
  auto h = [](const char* n) { return obs::Registry::instance().counter(n); };
  static RouterCounters* s = new RouterCounters{
      h("router.sessions_placed"),    h("router.placement_failures"),
      h("router.forwarded_frames"),   h("router.returned_frames"),
      h("router.upstream_closed"),    h("router.breaker_trips"),
      h("router.poll_failures"),      h("router.accept_backoff"),
      h("router.sessions_migrated"),  h("router.migrations_failed"),
      h("router.sessions_rehomed"),   h("router.sync_pulls"),
      h("router.standby_refusals"),   h("router.standby_promotions"),
      h("router.forward_writes")};
  return *s;
}

void sleep_for(common::Duration d) {
  std::this_thread::sleep_for(std::chrono::duration<double>(d.seconds()));
}

/// Sum `from` into `into` when their bucket geometry matches (an empty
/// `into` adopts `from`); otherwise leave `into` as it is, because
/// HistogramSnapshot::merge would throw.
void merge_compatible(obs::HistogramSnapshot& into,
                      const obs::HistogramSnapshot& from) {
  if (into.counts.empty()) {
    into = from;
  } else if (into.params == from.params &&
             into.counts.size() == from.counts.size()) {
    into.merge(from);
  }
}

}  // namespace

bool has_headroom(const ShardSnapshot& shard) {
  return !shard.refused && (shard.max_clients <= 0 ||
                            shard.sessions + shard.other_clients <
                                shard.max_clients);
}

std::optional<std::size_t> pick_shard(
    const std::vector<ShardSnapshot>& shards) {
  std::optional<std::size_t> fullest, least_loaded;
  const auto load = [&](std::size_t i) {
    return shards[i].sessions + shards[i].inflight;
  };
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const auto& s = shards[i];
    if (!s.alive || s.draining || s.breaker_open) continue;
    // Strict comparisons: equal keys keep the earlier index (deterministic).
    if (has_headroom(s) &&
        (!fullest.has_value() || s.sessions > shards[*fullest].sessions)) {
      fullest = i;
    }
    if (!least_loaded.has_value() || load(i) < load(*least_loaded)) {
      least_loaded = i;
    }
  }
  return fullest.has_value() ? fullest : least_loaded;
}

obs::RegistrySnapshot fold_fleet_stats(obs::RegistrySnapshot local,
                                       const std::vector<ShardStats>& shards) {
  obs::RegistrySnapshot out = std::move(local);
  double alive = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardStats& s = shards[i];
    const std::string prefix = obs::shard_prefix(i);
    for (const auto& [name, value] : s.polled.counters) {
      out.counters[name] += value;
      out.counters[prefix + name] = value;
    }
    out.counters[prefix + "router.placements"] = s.placement.sessions;
    out.counters[prefix + "router.alive"] = s.placement.alive ? 1.0 : 0.0;
    out.counters[prefix + "router.draining"] =
        s.placement.draining ? 1.0 : 0.0;
    out.counters[prefix + "router.power_watts"] = s.placement.power_watts;
    out.counters[prefix + "router.migrated_out"] = s.migrated_out;
    for (const auto& [name, snap] : s.polled.histograms) {
      merge_compatible(out.histograms[name], snap);
    }
    if (s.placement.alive) alive += 1;
  }
  out.counters["router.shards"] = static_cast<double>(shards.size());
  out.counters["router.shards_alive"] = alive;
  return out;
}

Router::Router(RouterOptions options) : options_(std::move(options)) {
  for (const auto& endpoint : options_.shards) {
    auto shard = std::make_unique<Shard>();
    shard->endpoint = endpoint;
    shards_.push_back(std::move(shard));
  }
  // With drain_after the list applies from the poller once the delay has
  // elapsed, so a run can build up sessions first and then live-migrate.
  if (options_.drain_after_seconds <= 0.0) {
    for (const int i : options_.drain) {
      if (i >= 0 && static_cast<std::size_t>(i) < shards_.size()) {
        shards_[static_cast<std::size_t>(i)]->draining.store(true);
      }
    }
    drain_applied_ = true;
  }
  standby_mode_.store(!options_.standby_of.empty());
  poll_conns_.resize(shards_.size());
}

Router::~Router() {
  if (running_.load()) stop();
  wait();
}

bool Router::start(std::string* error) {
  if (shards_.empty()) {
    if (error) *error = "router needs at least one shard endpoint";
    return false;
  }
  const auto ep = net::Endpoint::parse(options_.listen, error);
  if (!ep.has_value()) return false;
  std::optional<net::Listener> listener;
  if (ep->is_unix()) {
    listener = net::Listener::bind_unix(ep->path, 128, error);
  } else {
    listener = net::Listener::bind_tcp(ep->host, ep->port, 128, error);
  }
  if (!listener.has_value()) return false;
  bound_endpoint_ = listener->name();

  Reactor::Options ropts;
  ropts.workers = options_.workers;
  ropts.io_timeout = options_.io_timeout;
  ropts.queued_writes = counters().forward_writes;
  Reactor::Handler handler;
  handler.on_open = [this](const Reactor::ConnPtr& c) { on_open(c); };
  handler.on_frame = [this](const Reactor::ConnPtr& c, net::Frame f) {
    on_frame(c, std::move(f));
  };
  handler.on_close = [this](const Reactor::ConnPtr& c,
                            server::CloseReason reason,
                            const std::string& msg) {
    on_close(c, reason, msg);
  };
  handler.on_accept_backoff = [] { counters().accept_backoff.inc(); };
  handler.on_tick = [this] { on_tick(); };
  handler.on_stopped = [this] {
    running_.store(false);
    std::lock_guard lock(stopped_mu_);
    stopped_ = true;
    stopped_cv_.notify_all();
  };

  reactor_ = std::make_unique<Reactor>(ropts, std::move(handler));
  started_at_ = std::chrono::steady_clock::now();
  start_telemetry();
  {
    std::lock_guard lock(stopped_mu_);
    stopped_ = false;
  }
  running_.store(true);
  if (!reactor_->start(std::move(*listener), error)) {
    running_.store(false);
    std::lock_guard lock(stopped_mu_);
    stopped_ = true;
    return false;
  }
  {
    std::lock_guard lock(poller_mu_);
    poller_stop_ = false;
  }
  poller_ = std::thread([this] { poll_loop(); });
  common::log_info("router: serving ", bound_endpoint_, " fronting ",
                   shards_.size(), " shard(s)");
  return true;
}

void Router::start_telemetry() {
  auto& registry = obs::Registry::instance();
  telemetry_.started_at = started_at_;
  telemetry_.stats = [this] {
    // A fresh pass keeps the fleet aggregate (notably the energy gauge the
    // bench harness differences) poll-interval-independent.
    poll_shards();
    obs::RegistrySnapshot out =
        fold_fleet_stats(obs::Registry::instance().snapshot(), shard_stats());
    out.counters["router.epoch"] = static_cast<double>(epoch_.load());
    out.counters["router.standby"] = standby_mode_.load() ? 1.0 : 0.0;
    return out;
  };
  telemetry_.stats_requests = registry.counter("router.stats_requests");
  telemetry_.interval_seconds = options_.metrics_interval;
  if (options_.metrics_interval <= 0.0) return;
  auto sampler = std::make_unique<obs::Sampler>(options_.metrics_history);
  // Every provider reads the poller's shard view, so series are at most
  // poll_interval stale; a kStats series request runs a fresh poll pass
  // before sampling. Scope n is the whole fleet under plain names; scope
  // i < n is shard i under its shard.<i>. prefix. Both sum over their
  // shards.
  const std::size_t n = shards_.size();
  for (std::size_t scope = 0; scope <= n; ++scope) {
    const std::size_t first = scope == n ? 0 : scope;
    const std::size_t last = scope == n ? n : scope + 1;
    const std::string prefix = scope == n ? "" : obs::shard_prefix(scope);
    auto sum = [this, first, last](auto value) {
      return [this, first, last, value] {
        double total = 0.0;
        for (std::size_t i = first; i < last; ++i) {
          const Shard& s = *shards_[i];
          std::lock_guard lock(s.mu);
          total += value(s);
        }
        return total;
      };
    };
    auto counter = [&sum](const char* name) {
      return sum([name](const Shard& s) {
        const auto it = s.polled.counters.find(name);
        return it == s.polled.counters.end() ? 0.0 : it->second;
      });
    };
    sampler->add_rate(prefix + "rps", counter("server.replies"));
    sampler->add_gauge(prefix + "power_watts",
                       sum([](const Shard& s) { return s.power_watts; }));
    sampler->add_ratio(prefix + "joules_per_request",
                       counter("backend.total_energy_joules"),
                       counter("server.replies"));
    auto histogram = [this, first, last](const char* name) {
      return [this, first, last, name] {
        obs::HistogramSnapshot merged;
        for (std::size_t i = first; i < last; ++i) {
          const Shard& s = *shards_[i];
          std::lock_guard lock(s.mu);
          const auto it = s.polled.histograms.find(name);
          if (it != s.polled.histograms.end()) {
            merge_compatible(merged, it->second);
          }
        }
        return merged;
      };
    };
    sampler->add_histogram_percentile(
        prefix + "p95_seconds", histogram("server.request_latency_seconds"),
        95.0);
    sampler->add_histogram_percentile(
        prefix + "fill_p50_seconds", histogram("backend.batch_fill_seconds"),
        50.0);
    sampler->add_histogram_percentile(
        prefix + "close_check_p50_seconds",
        histogram("backend.close_check_seconds"), 50.0);
    sampler->add_gauge(prefix + "inflight",
                       sum([](const Shard& s) { return s.inflight; }));
    sampler->add_gauge(prefix + "energy_joules",
                       counter("backend.total_energy_joules"));
    sampler->add_gauge(prefix + "requests", counter("server.replies"));
    sampler->add_gauge(prefix + "sessions", sum([](const Shard& s) {
                         return static_cast<double>(
                             std::max(0, s.placements.load()));
                       }));
    sampler->add_gauge(prefix + "sessions_migrated", sum([](const Shard& s) {
                         return static_cast<double>(s.migrated_out.load());
                       }));
  }
  telemetry_.sampler = std::move(sampler);
}

void Router::notify_stop() {
  if (reactor_) reactor_->notify_stop();
}

void Router::wait() {
  {
    std::unique_lock lock(stopped_mu_);
    stopped_cv_.wait(lock, [this] { return stopped_; });
  }
  if (reactor_) reactor_->join();
  {
    std::lock_guard lock(poller_mu_);
    poller_stop_ = true;
  }
  poller_cv_.notify_all();
  if (poller_.joinable()) poller_.join();
  {
    // Drop the poll connections outside poll_mu_-holding paths.
    std::lock_guard lock(poll_mu_);
    for (auto& conn : poll_conns_) conn.reset();
  }
}

void Router::stop() {
  notify_stop();
  wait();
}

void Router::set_draining(std::size_t shard, bool draining) {
  if (shard < shards_.size()) shards_[shard]->draining.store(draining);
}

ShardSnapshot Router::snapshot_of(const Shard& shard) const {
  ShardSnapshot s;
  s.alive = shard.alive.load();
  s.draining = shard.draining.load();
  s.sessions =
      static_cast<double>(shard.placements.load() + shard.dialing.load());
  {
    std::lock_guard lock(shard.mu);
    s.breaker_open =
        std::chrono::steady_clock::now() < shard.breaker_open_until;
    s.inflight = shard.inflight;
    s.power_watts = shard.power_watts;
    s.max_clients = shard.max_clients;
    s.other_clients = shard.other_clients;
  }
  s.refused = shard.refused.load();
  return s;
}

std::vector<ShardStats> Router::shard_stats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats s;
    s.placement = snapshot_of(*shard);
    s.migrated_out = static_cast<double>(shard->migrated_out.load());
    std::lock_guard lock(shard->mu);
    s.polled = shard->polled;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<ShardSnapshot> Router::snapshots() const {
  std::vector<ShardSnapshot> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(snapshot_of(*shard));
  return out;
}

std::vector<std::size_t> Router::placement_order() const {
  auto snaps = snapshots();
  std::vector<std::size_t> order;
  // Repeatedly take the best placeable shard; each pick is masked out so
  // the order is exactly "pick_shard, then pick_shard without the first
  // choice, ...". Dial-time fallback walks this list.
  for (;;) {
    const auto best = pick_shard(snaps);
    if (!best.has_value()) break;
    order.push_back(*best);
    snaps[*best].alive = false;
  }
  return order;
}

void Router::record_dial_failure(Shard& shard) {
  if (options_.breaker_threshold <= 0) return;
  std::lock_guard lock(shard.mu);
  ++shard.dial_failures;
  if (shard.dial_failures >= options_.breaker_threshold) {
    const auto now = std::chrono::steady_clock::now();
    if (shard.breaker_open_until < now) counters().breaker_trips.inc();
    shard.breaker_open_until =
        now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(
                      options_.breaker_cooldown.seconds()));
  }
}

void Router::record_dial_success(Shard& shard) {
  std::lock_guard lock(shard.mu);
  shard.dial_failures = 0;
  shard.breaker_open_until = {};
}

void Router::on_open(const Reactor::ConnPtr& conn) {
  auto ctx = std::make_shared<Ctx>();
  ctx->hello_deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(
                                options_.hello_timeout.seconds()));
  ctx->self = conn;
  conn->set_ctx(ctx);
  std::lock_guard lock(conns_mu_);
  downstream_[conn->id()] = ctx;
}

void Router::on_frame(const Reactor::ConnPtr& conn, net::Frame frame) {
  auto ctx = std::static_pointer_cast<Ctx>(conn->ctx());
  if (ctx == nullptr) return;

  if (ctx->is_upstream) {
    // Shard -> client: forward verbatim. The shard speaks only to placed
    // sessions, so everything it sends belongs to the paired client.
    forward(conn, ctx, frame);
    return;
  }

  switch (ctx->state.load()) {
    case Ctx::State::kAwaitHello:
      // A standby router introduces itself with kSyncPull instead of a
      // hello; everything else must be a client handshake.
      if (static_cast<MsgType>(frame.type) == MsgType::kSyncPull) {
        handle_sync_pull(conn, ctx, frame);
      } else {
        handle_hello(conn, ctx, frame);
      }
      return;
    case Ctx::State::kServing:
      break;
    case Ctx::State::kClosed:
      return;
  }

  switch (static_cast<MsgType>(frame.type)) {
    case MsgType::kStats:
      server::answer_telemetry(conn, frame, telemetry_);
      return;
    case MsgType::kFlush:
      handle_flush(conn, ctx, frame);
      return;
    case MsgType::kShutdown:
      handle_shutdown();
      return;
    case MsgType::kSyncPull:
      handle_sync_pull(conn, ctx, frame);
      return;
    default:
      forward(conn, ctx, frame);
      return;
  }
}

void Router::handle_hello(const Reactor::ConnPtr& conn, const CtxPtr& ctx,
                          const net::Frame& frame) {
  const auto hello =
      static_cast<MsgType>(frame.type) == MsgType::kHello
          ? server::decode_hello(frame.payload)
          : std::nullopt;
  if (!hello.has_value()) {
    refuse(conn, ctx, "expected hello");
    return;
  }
  if (standby_mode_.load()) {
    // A well-formed refusal from a live-but-passive router: the client's
    // endpoint rotation moves on to the primary without this counting as
    // transport death (same breaker exemption as "server full").
    counters().standby_refusals.inc();
    refuse(conn, ctx, "router standby");
    return;
  }
  // The saved handshake is what a migration/re-home re-sends verbatim to
  // the target shard, so a moved session introduces itself exactly as the
  // client did.
  ctx->session = hello->session;
  ctx->replay = hello->session != 0 && hello->replay;
  ctx->hello_payload.assign(frame.payload.begin(), frame.payload.end());

  // Sticky re-placement: a session we have seen goes back to the shard
  // holding its replay state (even a draining one — drain excludes only
  // *new* sessions) as long as that shard is alive.
  std::optional<std::size_t> sticky;
  if (hello->session != 0) {
    std::lock_guard lock(place_mu_);
    const auto it = placement_table_.find(hello->session);
    if (it != placement_table_.end() && it->second < shards_.size()) {
      sticky = it->second;
    }
  }
  auto dialed = dial(sticky, std::nullopt, nullptr);
  if (!dialed.has_value()) {
    counters().placement_failures.inc();
    refuse(conn, ctx, "no shard available");
    return;
  }
  const std::size_t idx = dialed->shard;
  const auto up = attach(conn, ctx, std::move(*dialed));
  if (up == nullptr) {
    ctx->state.store(Ctx::State::kClosed);
    conn->close_async();
    return;
  }
  // Forward the hello verbatim: kHelloOk (limits, batching flags) or a
  // "server full" refusal flows back through the pairing, so the shard
  // keeps authority over admission and protocol versioning.
  if (!up->send(static_cast<std::uint16_t>(MsgType::kHello), frame.payload)) {
    // Send failure already marked the upstream closing; its close event
    // unwinds the pairing and the client retries.
    return;
  }
  counters().placed.inc();
  obs::instant("router.place", hello->session,
               "\"shard\":" + std::to_string(idx) + ",\"owner\":\"" +
                   obs::json_escape(hello->owner) + "\"");
}

void Router::refuse(const Reactor::ConnPtr& conn, const CtxPtr& ctx,
                    const std::string& msg) {
  conn->send(static_cast<std::uint16_t>(MsgType::kError),
             server::encode_error({msg}));
  ctx->state.store(Ctx::State::kClosed);
  conn->close_async();
}

std::optional<Router::Dialed> Router::dial(
    std::optional<std::size_t> sticky, std::optional<std::size_t> skip,
    const std::function<Handshake(net::Socket&)>& handshake) {
  std::vector<std::size_t> order;
  Reservation first;
  {
    std::lock_guard lock(pick_mu_);
    order = placement_order();
    if (sticky.has_value()) {
      const auto snap = snapshot_of(*shards_[*sticky]);
      if (snap.alive && !snap.breaker_open) {
        std::erase(order, *sticky);
        order.insert(order.begin(), *sticky);
      }
    }
    if (skip.has_value()) std::erase(order, *skip);
    if (!order.empty()) first = Reservation(shards_[order.front()]->dialing);
  }
  // Walk shards in placement order; the first one that answers a dial (and
  // the handshake) takes the session. A refused dial consumes its whole
  // (short) budget — the dialer deliberately rides out daemons that are
  // still binding — so the breaker exists to keep later walks from
  // re-paying that cost.
  for (const std::size_t idx : order) {
    Shard& shard = *shards_[idx];
    // The first choice's slot was reserved with the choice; a fallback
    // reserves its own.
    Reservation held = idx == order.front() ? std::move(first)
                                            : Reservation(shard.dialing);
    std::string err;
    auto sock = net::connect_endpoint(
        shard.endpoint, net::Deadline::after(options_.dial_timeout), &err);
    if (!sock.has_value()) {
      record_dial_failure(shard);
      common::log_warn("router: dial shard ", idx, " (", shard.endpoint,
                       "): ", err);
      continue;
    }
    const Handshake h = handshake ? handshake(*sock) : Handshake::kOk;
    if (h == Handshake::kUnreachable) record_dial_failure(shard);
    if (h != Handshake::kOk) continue;
    record_dial_success(shard);
    return Dialed{std::move(*sock), idx, std::move(held)};
  }
  return std::nullopt;
}

Reactor::ConnPtr Router::attach(const Reactor::ConnPtr& conn,
                                const CtxPtr& ctx, Dialed dialed,
                                const char** why) {
  auto failed = [why](const char* reason) -> Reactor::ConnPtr {
    if (why != nullptr) *why = reason;
    return nullptr;
  };
  auto up_ctx = std::make_shared<Ctx>();
  up_ctx->is_upstream = true;
  up_ctx->shard = static_cast<int>(dialed.shard);
  up_ctx->state.store(Ctx::State::kServing);
  up_ctx->peer = conn;
  auto up = reactor_->adopt(std::move(dialed.sock), up_ctx);
  if (up == nullptr) return failed("router stopping");

  // Swap the pairing. Parked frames flush to the new upstream in arrival
  // order under the same lock that parked them, so nothing can interleave
  // or reorder.
  Reactor::ConnPtr old_up;
  std::optional<std::size_t> from;
  bool attached = false;
  {
    std::lock_guard lock(ctx->mu);
    const auto state = ctx->state.load();
    attached = state != Ctx::State::kClosed;
    if (attached) {
      old_up = std::exchange(ctx->peer, up);
      if (ctx->shard >= 0) from = static_cast<std::size_t>(ctx->shard);
      ctx->shard = static_cast<int>(dialed.shard);
      ctx->unpark_to(*up);
      // A placed session starts serving once its shard is set: the drain
      // sweep reads the shard of serving sessions without this lock.
      if (state == Ctx::State::kAwaitHello) {
        ctx->state.store(Ctx::State::kServing);
      }
    }
  }
  if (!attached) {
    // Client vanished meanwhile: sever the fresh upstream quietly. A
    // migration's uncommitted export means the source copy simply ages out.
    {
      std::lock_guard lock(up_ctx->mu);
      up_ctx->peer = nullptr;
    }
    up_ctx->state.store(Ctx::State::kClosed);
    up->close_async();
    return failed("client closed during swap");
  }
  if (old_up != nullptr) {
    // Sever the old upstream silently: detach its peer first so its close
    // event can't touch (or re-home) the just-moved session.
    if (auto old_ctx = std::static_pointer_cast<Ctx>(old_up->ctx())) {
      std::lock_guard lock(old_ctx->mu);
      old_ctx->peer = nullptr;
      old_ctx->state.store(Ctx::State::kClosed);
    }
    old_up->close_async();
  }

  // Bookkeeping. The session counts on the shard in ctx->shard: a move
  // takes it off the old one (a dead shard's upstream close never gives it
  // back). Sticky placement remembers it, bounded FIFO-ish, and the fleet
  // epoch moves.
  if (from.has_value()) shards_[*from]->placements.fetch_sub(1);
  shards_[dialed.shard]->placements.fetch_add(1);
  if (ctx->session != 0) {
    std::lock_guard lock(place_mu_);
    if (placement_table_.size() >= kPlacementTableCap &&
        !placement_table_.contains(ctx->session)) {
      placement_table_.erase(placement_table_.begin());
    }
    placement_table_[ctx->session] = static_cast<std::uint32_t>(dialed.shard);
  }
  epoch_.fetch_add(1);
  return up;
}

std::optional<std::size_t> Router::move_session(
    const Reactor::ConnPtr& conn, const CtxPtr& ctx,
    std::optional<std::size_t> from, const Resume& resume, const char** why) {
  auto dialed = dial(std::nullopt, from, [&](net::Socket& sock) {
    const auto deadline = net::Deadline::after(options_.io_timeout);
    std::string err;
    if (net::write_frame(sock, static_cast<std::uint16_t>(MsgType::kHello),
                         ctx->hello_payload, deadline,
                         &err) != net::IoStatus::kOk) {
      return Handshake::kUnreachable;
    }
    net::Frame reply;
    if (net::read_frame(sock, &reply, deadline, &err) != net::IoStatus::kOk ||
        static_cast<MsgType>(reply.type) != MsgType::kHelloOk) {
      return Handshake::kRefused;  // alive but refusing ("server full")
    }
    return resume(sock, deadline) ? Handshake::kOk : Handshake::kRefused;
  });
  if (!dialed.has_value()) {
    if (why != nullptr) *why = "no target shard available";
    return std::nullopt;
  }
  const std::size_t target = dialed->shard;
  if (attach(conn, ctx, std::move(*dialed), why) == nullptr) {
    return std::nullopt;
  }
  return target;
}

void Router::Ctx::track_launch(const net::Frame& frame) {
  if (!replay || static_cast<MsgType>(frame.type) != MsgType::kLaunch) {
    return;
  }
  // The request id is the payload's leading u64. A shard death replays
  // these onto the survivor during the re-home.
  net::Reader r(frame.payload);
  const std::uint64_t id = r.u64();
  if (r.ok()) inflight[id] = frame.payload;
}

void Router::Ctx::unpark_to(Reactor::Conn& to) {
  for (const auto& frame : parked) {
    track_launch(frame);
    // A failed send marks `to` closing; its close event then queues a
    // re-home which replays from `inflight`.
    to.send(frame.type, frame.payload);
  }
  parked.clear();
  migrating = false;
}

void Router::forward(const Reactor::ConnPtr& conn, const CtxPtr& ctx,
                     const net::Frame& frame) {
  if (auto a = fault::hit("router.forward")) {
    switch (a.kind) {
      case fault::ActionKind::kDrop:
        return;  // silently discard; deadlines/replay pick up the pieces
      case fault::ActionKind::kStall:
      case fault::ActionKind::kDelay:
        sleep_for(a.duration);
        break;
      default:
        // fail/close/...: sever the pairing; both sides see a close.
        conn->close_async();
        ctx->state.store(Ctx::State::kClosed);
        return;
    }
  }
  Reactor::ConnPtr peer;
  if (!ctx->is_upstream) {
    bool overflow = false;
    {
      std::lock_guard lock(ctx->mu);
      if (ctx->migrating) {
        // Mid-migration: hold client frames until the swap (or abort)
        // lands them on the final peer, preserving order.
        if (ctx->parked.size() >= kParkedFramesCap) {
          overflow = true;
        } else {
          ctx->parked.push_back(frame);
          return;
        }
      } else {
        ctx->track_launch(frame);
        peer = ctx->peer;
      }
    }
    if (overflow) {
      ctx->state.store(Ctx::State::kClosed);
      conn->close_async();
      return;
    }
  } else {
    {
      std::lock_guard lock(ctx->mu);
      peer = ctx->peer;
    }
    if (static_cast<MsgType>(frame.type) == MsgType::kError &&
        ctx->shard >= 0) {
      // A hello refused for a slot the poll did not show taken (a client
      // that dialed the shard directly since): keep placement off the
      // shard until the next poll, so the client's retry spills.
      const auto err = server::decode_error(frame.payload);
      if (err.has_value() && err->message == "server full") {
        shards_[static_cast<std::size_t>(ctx->shard)]->refused.store(true);
      }
    }
    if (peer != nullptr &&
        static_cast<MsgType>(frame.type) == MsgType::kCompletion) {
      // Answered: drop it from the paired session's replay set.
      if (auto down = std::static_pointer_cast<Ctx>(peer->ctx())) {
        net::Reader r(frame.payload);
        const std::uint64_t id = r.u64();
        if (r.ok()) {
          std::lock_guard lock(down->mu);
          down->inflight.erase(id);
        }
      }
    }
  }
  if (peer == nullptr || peer->closing()) {
    // Pairing already severed; the close path tears this side down too.
    return;
  }
  // The router's hop in the distributed trace: a client-bound kLaunch gets
  // a "router.forward" slice carrying the launch's wire trace context, so
  // the merged fleet trace shows the router between the client's span and
  // the shard's. Decoding the payload costs a KernelDesc parse, so it is
  // gated on tracing being on.
  const bool trace_launch =
      !ctx->is_upstream && obs::Tracer::enabled() &&
      static_cast<MsgType>(frame.type) == MsgType::kLaunch;
  const double start_us = trace_launch ? obs::Tracer::now_us() : 0.0;
  // Corked: every frame this pump turn forwards to the peer leaves in one
  // write when the turn ends. With a fault scenario armed each frame is
  // sent on its own, so net.frame.send still fires once per frame.
  bool handed_over = true;
  if (fault::Injector::instance().armed()) {
    handed_over = peer->send(frame.type, frame.payload);
    if (handed_over) counters().forward_writes.inc();
  } else {
    peer->cork(frame.type, frame.payload);
  }
  if (handed_over) {
    (ctx->is_upstream ? counters().returned : counters().forwarded).inc();
    if (trace_launch) {
      if (const auto req = server::decode_launch(frame.payload)) {
        obs::SpanEvent ev;
        ev.name = "router.forward";
        ev.request_id = req->request_id;
        ev.trace_id = req->trace_id;
        ev.parent_span_id = req->parent_span_id;
        ev.ts_us = start_us;
        ev.dur_us = obs::Tracer::now_us() - start_us;
        ev.args = "\"shard\":" + std::to_string(ctx->shard);
        obs::Tracer::instance().record(std::move(ev));
      }
    }
  }
}

void Router::handle_flush(const server::Reactor::ConnPtr& conn,
                          const CtxPtr& ctx, const net::Frame& frame) {
  const auto flush = server::decode_flush(frame.payload);
  if (!flush.has_value()) {
    conn->send(static_cast<std::uint16_t>(MsgType::kError),
               server::encode_error({"malformed flush"}));
    conn->close_async();
    return;
  }
  // Over a poll connection the flush could reach the session's shard
  // before launches still in the session's pipe (corked this very pump
  // turn), leaving them pending after the flush. Mid-migration the pipe
  // leads to the target, so the source is flushed over its poll connection.
  bool piped = false;
  int own = -1;
  {
    std::lock_guard lock(ctx->mu);
    piped = ctx->migrating ||
            (ctx->peer != nullptr && !ctx->peer->closing());
    if (piped && !ctx->migrating) own = ctx->shard;
  }
  bool ok = true;
  {
    std::lock_guard lock(poll_mu_);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (static_cast<int>(i) == own) continue;
      auto& poll = poll_conns_[i];
      if (poll == nullptr || !poll->alive()) {
        poll.reset();
        std::string err;
        poll = server::ClientConnection::connect(
            shards_[i]->endpoint, "router.poll", options_.dial_timeout,
            server::ClientOptions{}, &err);
      }
      // An unreachable shard can't be holding this client's work (its
      // sessions died with it), so skip it rather than failing the flush.
      if (poll == nullptr) continue;
      ok = poll->flush(options_.io_timeout) && ok;
    }
  }
  if (piped) {
    forward(conn, ctx, frame);
    return;
  }
  conn->send(static_cast<std::uint16_t>(MsgType::kFlushDone),
             server::encode_flush_done({flush->token, ok}));
}

void Router::handle_shutdown() {
  common::log_info("router: shutdown requested; fanning out to shards");
  {
    std::lock_guard lock(poll_mu_);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      auto& conn = poll_conns_[i];
      if (conn == nullptr || !conn->alive()) {
        std::string err;
        conn = server::ClientConnection::connect(
            shards_[i]->endpoint, "router.ctl",
            options_.dial_timeout, server::ClientOptions{}, &err);
      }
      if (conn != nullptr) conn->request_shutdown();
    }
  }
  notify_stop();
}

void Router::on_close(const Reactor::ConnPtr& conn,
                      server::CloseReason reason, const std::string& msg) {
  auto ctx = std::static_pointer_cast<Ctx>(conn->ctx());
  if (ctx == nullptr) return;
  const auto prev = ctx->state.exchange(Ctx::State::kClosed);

  Reactor::ConnPtr peer;
  {
    std::lock_guard lock(ctx->mu);
    peer = std::move(ctx->peer);
    ctx->peer = nullptr;
  }

  if (ctx->is_upstream) {
    // A shard dropping a live pairing (vs. us unwinding it) is the signal
    // the chaos drill cares about. A replay session survives it in place:
    // instead of closing the client, park its frames and hand the session
    // to the poller for an in-router re-home (verbatim hello + inflight
    // launch replay on a surviving shard). Non-replay sessions keep the
    // old behavior — close through, client reconnects.
    const bool unclean = prev == Ctx::State::kServing &&
                         reason != server::CloseReason::kLocal;
    if (unclean) {
      counters().upstream_closed.inc();
      common::log_warn("router: shard ", ctx->shard,
                       " closed a live session: ", msg.empty() ? "eof" : msg);
    }
    bool rehomed = false;
    if (unclean && peer != nullptr) {
      if (auto down = std::static_pointer_cast<Ctx>(peer->ctx());
          down != nullptr && !down->is_upstream && down->replay &&
          down->session != 0 &&
          down->state.load() == Ctx::State::kServing) {
        bool queue = false;
        {
          std::lock_guard lock(down->mu);
          if (down->peer.get() == conn.get()) down->peer = nullptr;
          if (!down->migrating) {
            down->migrating = true;  // frames park until the re-home lands
            queue = true;
          }
        }
        if (queue) {
          {
            std::lock_guard lock(rehome_mu_);
            rehome_.push_back(down);
          }
          {
            std::lock_guard lock(poller_mu_);
            rehome_pending_ = true;
          }
          poller_cv_.notify_all();
          rehomed = true;
        }
      }
    }
    if (!rehomed && peer != nullptr) peer->close_async();
  } else {
    if (peer != nullptr) peer->close_async();
    {
      std::lock_guard lock(conns_mu_);
      downstream_.erase(conn->id());
    }
    if (ctx->shard >= 0) {
      shards_[static_cast<std::size_t>(ctx->shard)]->placements.fetch_sub(1);
    }
  }
}

void Router::on_tick() {
  const auto now = std::chrono::steady_clock::now();
  telemetry_.on_tick(now);
  std::vector<CtxPtr> expired;
  {
    std::lock_guard lock(conns_mu_);
    for (const auto& [id, ctx] : downstream_) {
      if (ctx->state.load() == Ctx::State::kAwaitHello &&
          now >= ctx->hello_deadline) {
        expired.push_back(ctx);
      }
    }
  }
  for (auto& ctx : expired) {
    auto want = Ctx::State::kAwaitHello;
    if (!ctx->state.compare_exchange_strong(want, Ctx::State::kClosed)) {
      continue;  // hello arrived between the scan and now
    }
    if (auto conn = ctx->self.lock()) conn->close_async();
  }
}

void Router::poll_shards() {
  std::lock_guard poll_lock(poll_mu_);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    auto& conn = poll_conns_[i];
    if (conn == nullptr || !conn->alive()) {
      conn.reset();
      std::string err;
      conn = server::ClientConnection::connect(
          shard.endpoint, "router.poll", options_.dial_timeout,
          server::ClientOptions{}, &err);
      if (conn == nullptr) {
        shard.alive.store(false);
        counters().poll_failures.inc();
        continue;
      }
    }
    auto stats =
        conn->stats(/*include_histograms=*/true, options_.dial_timeout);
    if (!stats.has_value()) {
      // One failed poll marks the shard dead for placement; the next pass
      // redials. Cheap false negatives beat placing onto a corpse.
      shard.alive.store(false);
      counters().poll_failures.inc();
      conn.reset();
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard lock(shard.mu);
    const auto get = [&](const std::string& name) {
      const auto it = stats->counters.find(name);
      return it == stats->counters.end() ? 0.0 : it->second;
    };
    const double energy = get("backend.total_energy_joules");
    if (shard.have_energy && shard.polled_at.time_since_epoch().count() != 0) {
      const double dt =
          std::chrono::duration<double>(now - shard.polled_at).count();
      if (dt > 1e-3) {
        shard.power_watts =
            std::max(0.0, (energy - shard.energy_joules) / dt);
      }
    }
    shard.energy_joules = energy;
    shard.have_energy = true;
    shard.polled_at = now;
    shard.inflight = server::inflight(get);
    shard.max_clients = get("server.max_clients");
    // The shard admits by its live connection count; the ones this router
    // did not place hold slots its placements alone would not show.
    shard.other_clients =
        std::max(1.0, get("server.connections.live") -
                          static_cast<double>(shard.placements.load()));
    shard.refused.store(false);
    shard.polled.counters = std::move(stats->counters);
    shard.polled.histograms = std::move(stats->histograms);
    shard.alive.store(true);
  }
}

void Router::poll_loop() {
  for (;;) {
    poll_shards();
    if (!standby_mode_.load()) {
      if (!drain_applied_ && options_.drain_after_seconds > 0.0 &&
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started_at_)
                  .count() >= options_.drain_after_seconds) {
        for (const int i : options_.drain) {
          if (i >= 0 && static_cast<std::size_t>(i) < shards_.size()) {
            shards_[static_cast<std::size_t>(i)]->draining.store(true);
            common::log_info("router: drain delay elapsed; draining shard ",
                             i);
          }
        }
        drain_applied_ = true;
      }
      process_rehomes();
      migrate_draining();
    } else {
      if (sync_pull_once()) {
        sync_failures_ = 0;
      } else if (++sync_failures_ >=
                 std::max(1, options_.standby_failures)) {
        promote();
      }
    }
    std::unique_lock lock(poller_mu_);
    poller_cv_.wait_for(
        lock,
        std::chrono::duration<double>(options_.poll_interval.seconds()),
        [this] { return poller_stop_ || rehome_pending_; });
    rehome_pending_ = false;
    if (poller_stop_) return;
  }
}

void Router::migrate_draining() {
  for (std::size_t idx = 0; idx < shards_.size(); ++idx) {
    Shard& shard = *shards_[idx];
    if (!shard.draining.load() || !shard.alive.load()) continue;
    // Snapshot the drain victims first: migrate_session dials and does
    // frame I/O, which must not happen under conns_mu_.
    std::vector<std::pair<Reactor::ConnPtr, CtxPtr>> victims;
    {
      std::lock_guard lock(conns_mu_);
      for (const auto& [id, ctx] : downstream_) {
        if (ctx->state.load() != Ctx::State::kServing) continue;
        if (ctx->is_upstream || ctx->shard != static_cast<int>(idx)) continue;
        // Only replay sessions are migratable: the shard's dedup state is
        // what the snapshot carries, and only a replay client re-sends its
        // hello with the same nonce after a disconnect.
        if (!ctx->replay || ctx->session == 0) continue;
        if (auto conn = ctx->self.lock()) victims.emplace_back(conn, ctx);
      }
    }
    for (auto& [conn, ctx] : victims) migrate_session(conn, ctx, idx);
  }
}

bool Router::migrate_session(const Reactor::ConnPtr& conn, const CtxPtr& ctx,
                             std::size_t from) {
  // The idle test and the parking latch are one atom: once `migrating` is
  // set no launch can slip through to the source, so the exported snapshot
  // is complete by construction.
  {
    std::lock_guard lock(ctx->mu);
    if (ctx->migrating || !ctx->inflight.empty() ||
        ctx->state.load() != Ctx::State::kServing) {
      return false;  // busy or already moving; the next sweep retries
    }
    ctx->migrating = true;
  }
  auto fail = [&](const char* why) {
    common::log_warn("router: migration of session ", ctx->session,
                     " off shard ", from, " failed: ", why);
    counters().migrations_failed.inc();
    abort_migration(ctx);
    return false;
  };
  if (auto a = fault::hit("router.handoff")) {
    switch (a.kind) {
      case fault::ActionKind::kStall:
      case fault::ActionKind::kDelay:
        fault::sleep_for(a.duration);
        break;
      default:
        return fail("injected fault");
    }
  }

  // 1. Export without commit: the source stays authoritative, so any
  //    failure from here on aborts with the session untouched.
  std::string err;
  auto src = server::ClientConnection::connect(
      shards_[from]->endpoint, "router.migrate", options_.dial_timeout,
      server::ClientOptions{}, &err);
  if (src == nullptr) return fail("source dial failed");
  const auto exported = src->migrate_export(ctx->session, /*commit=*/false,
                                            options_.io_timeout);
  if (!exported.has_value()) return fail("export transport failed");
  if (!exported->ok) return fail(exported->error.c_str());

  // 2. Move: the target gets the client's hello verbatim, then the
  //    snapshot import, both on the socket that becomes the new upstream.
  const char* why = "";
  const auto target = move_session(
      conn, ctx, from,
      [&](net::Socket& sock, const net::Deadline& deadline) {
        server::MigrateImportMsg import;
        import.token = ctx->session;
        import.snapshot = exported->snapshot;
        net::Frame reply;
        if (net::write_frame(
                sock, static_cast<std::uint16_t>(MsgType::kMigrateImport),
                server::encode_migrate_import(import), deadline,
                &err) != net::IoStatus::kOk ||
            net::read_frame(sock, &reply, deadline, &err) !=
                net::IoStatus::kOk ||
            static_cast<MsgType>(reply.type) !=
                MsgType::kMigrateImportReply) {
          return false;
        }
        const auto imported =
            server::decode_migrate_import_reply(reply.payload);
        return imported.has_value() && imported->ok;
      },
      &why);
  if (!target.has_value()) return fail(why);
  shards_[from]->migrated_out.fetch_add(1);
  counters().sessions_migrated.inc();

  // 3. Commit: tell the source to drop its copy. Best-effort — a lost
  //    commit leaves an orphan the idle sweep evicts after the grace
  //    window; authority already moved with the swap.
  src->migrate_export(ctx->session, /*commit=*/true, options_.io_timeout);
  obs::instant("router.handoff", ctx->session,
               "\"from\":" + std::to_string(from) +
                   ",\"to\":" + std::to_string(*target));
  common::log_info("router: live-migrated session ", ctx->session,
                   " shard ", from, " -> ", *target);
  return true;
}

void Router::abort_migration(const CtxPtr& ctx) {
  {
    std::lock_guard lock(ctx->mu);
    if (ctx->peer != nullptr && !ctx->peer->closing()) {
      // The source is still authoritative: flush the parked frames to it
      // in arrival order and resume normal forwarding.
      ctx->unpark_to(*ctx->peer);
      return;
    }
    ctx->parked.clear();
    ctx->migrating = false;
  }
  // No surviving peer to fall back to: close the client. Its
  // reconnect+replay path restores the session (at-least-once holds; the
  // shard's dedup keeps execution exactly-once).
  ctx->state.store(Ctx::State::kClosed);
  if (auto conn = ctx->self.lock()) conn->close_async();
}

void Router::process_rehomes() {
  std::vector<CtxPtr> batch;
  {
    std::lock_guard lock(rehome_mu_);
    batch.swap(rehome_);
  }
  for (auto& ctx : batch) {
    if (!rehome_session(ctx)) {
      counters().migrations_failed.inc();
      abort_migration(ctx);
    }
  }
}

bool Router::rehome_session(const CtxPtr& ctx) {
  auto conn = ctx->self.lock();
  if (conn == nullptr || ctx->state.load() != Ctx::State::kServing) {
    return false;
  }
  std::optional<std::size_t> from;  // it just died; don't redial it
  std::map<std::uint64_t, std::vector<std::byte>> inflight;
  {
    std::lock_guard lock(ctx->mu);
    if (ctx->shard >= 0) from = static_cast<std::size_t>(ctx->shard);
    inflight = ctx->inflight;
  }
  // Replay the unanswered launches (request-id order) after the hello and
  // before any parked frames: the shard's (owner, request_id) dedup makes a
  // duplicate delivery idempotent, so at-least-once here still executes
  // once.
  const auto target = move_session(
      conn, ctx, from, [&](net::Socket& sock, const net::Deadline& deadline) {
        std::string err;
        for (const auto& [id, payload] : inflight) {
          if (net::write_frame(sock,
                               static_cast<std::uint16_t>(MsgType::kLaunch),
                               payload, deadline,
                               &err) != net::IoStatus::kOk) {
            return false;
          }
        }
        return true;
      });
  if (!target.has_value()) return false;
  const int from_idx = from.has_value() ? static_cast<int>(*from) : -1;
  counters().sessions_rehomed.inc();
  obs::instant("router.rehome", ctx->session,
               "\"from\":" + std::to_string(from_idx) +
                   ",\"to\":" + std::to_string(*target) + ",\"replayed\":" +
                   std::to_string(inflight.size()));
  common::log_info("router: re-homed session ", ctx->session, " shard ",
                   from_idx, " -> ", *target, " (", inflight.size(),
                   " launches replayed)");
  return true;
}

void Router::handle_sync_pull(const Reactor::ConnPtr& conn, const CtxPtr& ctx,
                              const net::Frame& frame) {
  const auto pull = server::decode_sync_pull(frame.payload);
  if (!pull.has_value()) {
    refuse(conn, ctx, "malformed sync_pull");
    return;
  }
  counters().sync_pulls.inc();
  // The peer is a router, not a client: mark it serving so the hello
  // deadline sweep leaves the long-lived sync connection alone. It never
  // gets a pairing, so any non-sync frame it sends just forwards into a
  // null peer and is dropped.
  ctx->state.store(Ctx::State::kServing);

  server::SyncStateMsg msg;
  msg.token = pull->token;
  msg.epoch = epoch_.load();
  const auto now = std::chrono::steady_clock::now();
  for (const auto& sp : shards_) {
    server::SyncStateMsg::ShardState st;
    st.endpoint = sp->endpoint;
    st.alive = sp->alive.load();
    st.draining = sp->draining.load();
    {
      std::lock_guard lock(sp->mu);
      st.breaker_open = now < sp->breaker_open_until;
    }
    st.placements =
        static_cast<std::uint64_t>(std::max(0, sp->placements.load()));
    msg.shards.push_back(std::move(st));
  }
  {
    std::lock_guard lock(place_mu_);
    msg.placements = placement_table_;
  }
  conn->send(static_cast<std::uint16_t>(MsgType::kSyncState),
             server::encode_sync_state(msg));
}

bool Router::sync_pull_once() {
  std::string err;
  if (!sync_sock_.has_value()) {
    auto s = net::connect_endpoint(
        options_.standby_of, net::Deadline::after(options_.dial_timeout),
        &err);
    if (!s.has_value()) return false;
    sync_sock_ = std::move(*s);
  }
  // dial_timeout (short) bounds the frame I/O too: a hung primary must not
  // stall the poller for a full io_timeout per pull, or promotion after
  // `standby_failures` misses would take minutes instead of seconds.
  const auto deadline = net::Deadline::after(options_.dial_timeout);
  server::SyncPullMsg pull;
  pull.token = ++sync_token_;
  pull.have_epoch = epoch_.load();
  if (net::write_frame(*sync_sock_,
                       static_cast<std::uint16_t>(MsgType::kSyncPull),
                       server::encode_sync_pull(pull), deadline,
                       &err) != net::IoStatus::kOk) {
    sync_sock_.reset();
    return false;
  }
  net::Frame frame;
  if (net::read_frame(*sync_sock_, &frame, deadline, &err) !=
          net::IoStatus::kOk ||
      static_cast<MsgType>(frame.type) != MsgType::kSyncState) {
    sync_sock_.reset();
    return false;
  }
  const auto state = server::decode_sync_state(frame.payload);
  if (!state.has_value()) {
    sync_sock_.reset();
    return false;
  }
  apply_sync_state(*state);
  return true;
}

void Router::apply_sync_state(const server::SyncStateMsg& msg) {
  {
    std::lock_guard lock(place_mu_);
    placement_table_.clear();
    for (const auto& [session, shard] : msg.placements) {
      if (shard < shards_.size()) placement_table_[session] = shard;
    }
  }
  epoch_.store(msg.epoch);
  const std::size_t n = std::min(shards_.size(), msg.shards.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& st = msg.shards[i];
    Shard& shard = *shards_[i];
    if (st.endpoint != shard.endpoint) continue;  // topology mismatch
    shard.draining.store(st.draining);
    if (st.breaker_open) {
      std::lock_guard lock(shard.mu);
      shard.breaker_open_until =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(
                  options_.breaker_cooldown.seconds()));
    }
    // alive and placements stay local: this router's own poller and its
    // own downstream accounting are authoritative for those the moment it
    // promotes.
  }
}

void Router::promote() {
  standby_mode_.store(false);
  sync_sock_.reset();
  counters().standby_promotions.inc();
  common::log_info(
      "router: primary unreachable; standby promoting to active at epoch ",
      epoch_.load());
}

}  // namespace ewc::router
