// Fill-aware fleet router: one process fronting N ewcd shards.
//
// The paper consolidates workloads onto one GPU; the fleet generalizes that
// to N single-GPU shards behind one endpoint. The router terminates the
// client side of the EWC1 protocol only far enough to *place* a session —
// everything else is frame forwarding:
//
//   * a new downstream connection's kHello triggers placement: the router
//     packs sessions onto the fewest shards, so each shard's batches fill
//     at the fleet's arrival rate. It dials the healthy shard with a free
//     client slot (limit and live connections polled over the existing
//     kStats frame) that already holds the most sessions, then forwards
//     the hello verbatim. The shard answers kHelloOk (or "server full")
//     straight through, so admission control, replay dedup, and protocol
//     versioning stay shard-owned;
//   * after placement every downstream frame is forwarded to the paired
//     upstream connection and vice versa, 1:1, in order (both directions
//     ride the same epoll reactor that serves ewcd itself). kStats and
//     kShutdown are the two exceptions: stats are answered by the router
//     with a fleet-wide aggregate (plus a shard.<i>.* breakdown), and
//     shutdown fans out to every shard before stopping the router;
//   * a session moves only through one transaction: walk the placement
//     order and dial, hand the new upstream the client's saved hello, swap
//     the pairing and replay parked frames. A draining shard's idle replay
//     sessions live-migrate this way, and a replay session whose shard
//     dies is re-homed in place with its unanswered launches replayed. A
//     non-replay session on a dead shard is closed; its client reconnects;
//   * per-shard circuit breakers (dial failures) and liveness from the
//     stats poller keep placement away from dead or refusing shards, and a
//     draining shard stops receiving new sessions (see docs/SHARDING.md).
//
// Placement (pick_shard) and the fleet stats fold (fold_fleet_stats) are
// pure functions over per-shard snapshots, so both are unit-testable
// without sockets.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "obs/registry.hpp"
#include "server/client.hpp"
#include "server/protocol_wire.hpp"
#include "server/reactor.hpp"
#include "server/telemetry.hpp"

namespace ewc::router {

/// One shard as the placement policy sees it.
struct ShardSnapshot {
  bool alive = true;          ///< last stats poll answered
  bool draining = false;      ///< operator is migrating sessions away
  bool breaker_open = false;  ///< recent dial failures; in cooldown
  /// Router-placed live sessions, placements still dialing included.
  double sessions = 0;
  double inflight = 0;        ///< shard-reported unanswered launches
  double power_watts = 0;     ///< d(energy)/dt between the last two polls
  double max_clients = 0;     ///< advertised client limit; 0 = not polled
  /// Live connections on the shard that this router did not place: its own
  /// poll connection, a standby router's poller, clients that dialed the
  /// shard directly. At least 1 (the poll connection).
  double other_clients = 1;
  bool refused = false;  ///< answered a hello "server full" since the poll
};

/// True while a shard can admit one more session: its router-placed
/// sessions plus its other live connections are below its client limit, and
/// it has not refused a hello since the last poll. A shard not polled yet
/// has headroom.
bool has_headroom(const ShardSnapshot& shard);

/// The placement policy, fill-aware packing: among shards that are alive,
/// not draining and not breaker-open, the one with headroom that holds the
/// most sessions; when none has headroom, the least sessions + inflight.
/// Lowest index wins ties (deterministic). nullopt when no shard is
/// placeable.
std::optional<std::size_t> pick_shard(const std::vector<ShardSnapshot>& shards);

/// One shard as the fleet stats fold sees it.
struct ShardStats {
  ShardSnapshot placement;  ///< alive, draining, sessions, power_watts
  double migrated_out = 0;  ///< sessions live-migrated away
  obs::RegistrySnapshot polled;  ///< the shard's last kStats reply
};

/// The router's kStats body, a pure function of its inputs: `local` (the
/// router's own registry snapshot) plus
///   * every shard counter summed in under its plain name, in shard-index
///     order, so fleet-wide "server.replies" or
///     "backend.total_energy_joules" read exactly like a single daemon's;
///   * the shard.<i>.* breakdown: each shard's counters plus the
///     router.{placements,alive,draining,power_watts,migrated_out} gauges;
///   * router.shards and router.shards_alive;
///   * every shard histogram merged in by name. One whose bucket geometry
///     differs from the first seen under its name is skipped: a shard
///     reporting an odd geometry must not take the router down.
obs::RegistrySnapshot fold_fleet_stats(obs::RegistrySnapshot local,
                                       const std::vector<ShardStats>& shards);

struct RouterOptions {
  /// Endpoint to serve clients on (`unix:/path`, `tcp:host:port`, bare path).
  std::string listen;
  /// Shard endpoints, in index order (index is the stats-breakdown key).
  std::vector<std::string> shards;
  /// Stats-poll cadence; also bounds how stale placement's view of each
  /// shard's connections is.
  common::Duration poll_interval = common::Duration::from_millis(500.0);
  /// Per-attempt budget for dialing a shard at placement time. Kept short:
  /// a refused dial burns the whole budget (the dialer rides out daemons
  /// that are still binding), and placement falls back to the next shard.
  common::Duration dial_timeout = common::Duration::from_seconds(1.0);
  /// Per-frame blocking-send budget, both directions.
  common::Duration io_timeout = common::Duration::from_seconds(30.0);
  /// A downstream connection that sends no hello within this is closed.
  common::Duration hello_timeout = common::Duration::from_seconds(10.0);
  /// Consecutive dial failures that open a shard's breaker; <=0 disables.
  int breaker_threshold = 2;
  /// How long an open breaker keeps placement away before a half-open probe.
  common::Duration breaker_cooldown = common::Duration::from_seconds(3.0);
  /// Shard indices draining from the start (also settable at runtime).
  /// A draining shard stops receiving new placements AND the router
  /// actively live-migrates its idle replay sessions onto healthy shards
  /// (kMigrateExport/kMigrateImport), so the drain empties in seconds
  /// instead of by attrition.
  std::vector<int> drain;
  /// Delay (real seconds) before the --drain list takes effect; 0 applies
  /// it at startup. Lets a chaos/CI run build up live sessions first and
  /// then watch the live migration empty the shard mid-run.
  double drain_after_seconds = 0.0;
  /// Run as the warm standby of the primary router at this endpoint:
  /// refuse client hellos (clients rotate through their endpoint list to
  /// the primary) while pulling the primary's fleet state — placement
  /// table, shard liveness/drain/breaker, migration epoch — over
  /// kSyncPull/kSyncState every poll tick. After `standby_failures`
  /// consecutive failed pulls the standby promotes itself and starts
  /// accepting sessions with the primary's last replicated fleet view.
  std::string standby_of;
  /// Consecutive sync-pull failures before a standby promotes itself.
  int standby_failures = 3;
  /// Reactor pump workers (0 = min(16, max(4, hardware))).
  int workers = 0;
  /// Time-series sampler tick (seconds): every tick derives fleet-wide and
  /// per-shard (shard.<i>.*) rps / p95 / watts / joules-per-request series
  /// from the poller's shard view, served over kMetrics. 0 disables.
  double metrics_interval = 1.0;
  /// Points kept per series (history window = interval * history).
  std::size_t metrics_history = 120;
};

class Router {
 public:
  explicit Router(RouterOptions options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Bind the listen endpoint, start the reactor and the stats poller.
  bool start(std::string* error);

  /// Async-signal-safe stop trigger.
  void notify_stop();

  /// Block until the router has stopped.
  void wait();

  /// notify_stop() + wait().
  void stop();

  bool running() const { return running_.load(); }
  /// Canonical endpoint actually bound (resolves a tcp port-0 bind).
  const std::string& endpoint() const { return bound_endpoint_; }

  std::size_t shard_count() const { return shards_.size(); }
  /// Mark/unmark a shard as draining: new placements avoid it, and the
  /// poller live-migrates its idle replay sessions onto healthy shards.
  void set_draining(std::size_t shard, bool draining);
  /// The placement policy's current view (tests, stats breakdown).
  std::vector<ShardSnapshot> snapshots() const;
  /// True while running as an unpromoted standby (refusing hellos).
  bool standby() const { return standby_mode_.load(); }
  /// Monotonic fleet-state version: bumps on every placement, migration,
  /// and re-home; replicated to the standby in kSyncState.
  std::uint64_t epoch() const { return epoch_.load(); }

 private:
  /// Live state for one shard.
  struct Shard {
    std::string endpoint;
    std::atomic<bool> alive{true};
    std::atomic<bool> draining{false};
    std::atomic<int> placements{0};   ///< live router-placed sessions
    std::atomic<int> dialing{0};  ///< placements dialing it (Reservation)
    std::atomic<int> migrated_out{0};  ///< sessions live-migrated away
    /// Set when the shard answers a hello "server full"; the next
    /// successful poll clears it.
    std::atomic<bool> refused{false};

    mutable std::mutex mu;  ///< guards everything below
    int dial_failures = 0;  ///< consecutive; resets on success
    std::chrono::steady_clock::time_point breaker_open_until{};
    /// Last successful poll's view.
    double inflight = 0;
    double energy_joules = 0;
    double power_watts = 0;
    double max_clients = 0;
    double other_clients = 1;
    bool have_energy = false;
    std::chrono::steady_clock::time_point polled_at{};
    obs::RegistrySnapshot polled;
  };

  /// Per-connection state, attached as Reactor::Conn ctx on both sides of
  /// a pairing. Downstream (client-facing) conns start in kAwaitHello;
  /// upstream (shard-facing) conns are born kServing with `peer` fixed.
  struct Ctx {
    enum class State { kAwaitHello, kServing, kClosed };
    bool is_upstream = false;
    int shard = -1;
    std::atomic<State> state{State::kAwaitHello};
    std::chrono::steady_clock::time_point hello_deadline{};
    /// Session identity from the hello (downstream only; written once in
    /// handle_hello before the state flips to kServing). The saved hello
    /// payload is re-sent verbatim when a migration / re-home adopts a new
    /// upstream, so the target shard sees the same handshake the client
    /// sent.
    std::uint64_t session = 0;
    bool replay = false;
    std::vector<std::byte> hello_payload;
    std::mutex mu;  ///< guards peer + the migration state below
    server::Reactor::ConnPtr peer;
    /// Live-migration latch (downstream only): while set, client frames
    /// park in `parked` instead of forwarding, and the migration's swap
    /// (or abort) unparks them onto the final peer. Set+checked under mu
    /// together with the inflight-empty test, so a launch can never slip
    /// between "session is idle" and "frames are parked".
    bool migrating = false;
    /// Replay-session kLaunch payloads awaiting a shard answer, keyed by
    /// request id (downstream only). A shard SIGKILL replays these onto
    /// the surviving shard during a re-home.
    std::map<std::uint64_t, std::vector<std::byte>> inflight;
    /// Frames parked while migrating (bounded; overflow closes the conn).
    std::deque<net::Frame> parked;
    /// Back-reference for the tick sweep (set in on_open; downstream only).
    std::weak_ptr<server::Reactor::Conn> self;

    /// Under mu: remember a replay session's kLaunch in `inflight` until
    /// the shard answers it.
    void track_launch(const net::Frame& frame);
    /// Under mu: send the parked frames to `to` in arrival order and
    /// resume forwarding.
    void unpark_to(server::Reactor::Conn& to);
  };
  using CtxPtr = std::shared_ptr<Ctx>;

  // Reactor handlers.
  void on_open(const server::Reactor::ConnPtr& conn);
  void on_frame(const server::Reactor::ConnPtr& conn, net::Frame frame);
  void on_close(const server::Reactor::ConnPtr& conn,
                server::CloseReason reason, const std::string& msg);
  void on_tick();

  /// Downstream hello: place the session, dial, pair, forward.
  void handle_hello(const server::Reactor::ConnPtr& conn, const CtxPtr& ctx,
                    const net::Frame& frame);
  /// Answer a downstream with kError(msg) and close it.
  static void refuse(const server::Reactor::ConnPtr& conn, const CtxPtr& ctx,
                     const std::string& msg);
  /// Fill telemetry_: kStats answers with the fleet fold after a fresh
  /// poll; with metrics_interval > 0, also register the fleet-wide and
  /// shard.<i>.* derived series over the poller's view and start the
  /// sampler thread.
  void start_telemetry();
  /// The fleet fold's input: every shard's placement view and last poll.
  std::vector<ShardStats> shard_stats() const;
  /// Downstream kFlush: fan out to every shard (a client asking "push the
  /// pending batch through" means the fleet's, not just its own shard's),
  /// then answer kFlushDone(ok = every shard flushed).
  void handle_flush(const server::Reactor::ConnPtr& conn,
                    const net::Frame& frame);
  /// Downstream kShutdown: fan out to shards, then stop the router.
  void handle_shutdown();
  /// Forward one frame to the connection's peer (either direction), through
  /// the router.forward fault site.
  void forward(const server::Reactor::ConnPtr& conn, const CtxPtr& ctx,
               const net::Frame& frame);

  /// Candidate order for one placement: pick_shard's choice first.
  std::vector<std::size_t> placement_order() const;
  ShardSnapshot snapshot_of(const Shard& shard) const;
  void record_dial_failure(Shard& shard);
  void record_dial_success(Shard& shard);

  /// One synchronous poll pass over every shard (poller thread; also run
  /// on demand before a kStats or kMetrics reply for a fresh view).
  void poll_shards();
  void poll_loop();

  // -- Session moves: placement, drain migration, re-home ------------------
  /// How a handshake on a freshly dialed shard ended. kUnreachable counts
  /// against the breaker like a failed dial; kRefused (alive, said no) not.
  enum class Handshake { kOk, kUnreachable, kRefused };
  /// A move's step after hello -> kHelloOk on the new socket: the
  /// migration's import or the re-home's launch replay. False refuses.
  using Resume = std::function<bool(net::Socket&, const net::Deadline&)>;
  /// One move in flight onto a shard: counts in its `dialing` from before
  /// the dial until attach() has counted the session (or the move fails),
  /// so concurrent placements see the slot taken.
  class Reservation {
   public:
    Reservation() = default;
    explicit Reservation(std::atomic<int>& dialing) : dialing_(&dialing) {
      dialing_->fetch_add(1);
    }
    Reservation(Reservation&& other) noexcept
        : dialing_(std::exchange(other.dialing_, nullptr)) {}
    Reservation& operator=(Reservation&& other) noexcept {
      std::swap(dialing_, other.dialing_);
      return *this;
    }
    ~Reservation() {
      if (dialing_ != nullptr) dialing_->fetch_sub(1);
    }

   private:
    std::atomic<int>* dialing_ = nullptr;
  };
  struct Dialed {
    net::Socket sock;
    std::size_t shard = 0;
    Reservation reservation;
  };
  /// The dial walk over the placement order, `sticky` first (when alive and
  /// breaker-closed) and `skip` left out, keeping each shard's breaker. The
  /// first shard whose dial and `handshake` (if any) succeed wins.
  std::optional<Dialed> dial(std::optional<std::size_t> sticky,
                             std::optional<std::size_t> skip,
                             const std::function<Handshake(net::Socket&)>&
                                 handshake);
  /// Adopt `dialed` as the session's upstream: swap the pairing and replay
  /// parked frames under ctx->mu, sever the old upstream, then the
  /// bookkeeping (placement counts, sticky table, epoch). nullptr (with
  /// *why) when the router is stopping or the client has closed.
  server::Reactor::ConnPtr attach(const server::Reactor::ConnPtr& conn,
                                  const CtxPtr& ctx, Dialed dialed,
                                  const char** why = nullptr);
  /// Drain migration's and re-home's move: dial off `from`, re-send the
  /// saved hello, await kHelloOk, run `resume`, attach. The new shard, or
  /// nullopt (with *why).
  std::optional<std::size_t> move_session(const server::Reactor::ConnPtr& conn,
                                          const CtxPtr& ctx,
                                          std::optional<std::size_t> from,
                                          const Resume& resume,
                                          const char** why = nullptr);

  /// Sweep draining shards and live-migrate their idle replay sessions
  /// (poller thread).
  void migrate_draining();
  /// Move one idle session off `from`: export snapshot -> move with the
  /// snapshot import as its resume step -> commit the export. Returns false
  /// (source untouched, frames unparked) on any failure.
  bool migrate_session(const server::Reactor::ConnPtr& conn,
                       const CtxPtr& ctx, std::size_t from);
  /// Unwind a failed migration: unpark onto the surviving peer, or close
  /// the downstream when no peer is left (client reconnect recovers).
  void abort_migration(const CtxPtr& ctx);
  /// Re-home sessions whose shard died mid-run: a move with the inflight
  /// launch replay as its resume step (poller thread).
  void process_rehomes();
  bool rehome_session(const CtxPtr& ctx);

  // -- Active/standby replication ------------------------------------------
  /// Primary side: answer a standby's kSyncPull with the fleet state.
  void handle_sync_pull(const server::Reactor::ConnPtr& conn,
                        const CtxPtr& ctx, const net::Frame& frame);
  /// Standby side: one pull from the primary (poller thread). False on any
  /// transport/decode failure.
  bool sync_pull_once();
  void apply_sync_state(const server::SyncStateMsg& msg);
  void promote();

  RouterOptions options_;
  std::string bound_endpoint_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::unique_ptr<server::Reactor> reactor_;

  mutable std::mutex conns_mu_;
  std::map<std::uint64_t, CtxPtr> downstream_;  ///< by Reactor::Conn id

  /// Poller state: one persistent stats client per shard, redialed on
  /// failure. poll_mu_ serializes poll passes (timer vs on-demand).
  std::mutex poll_mu_;
  std::vector<std::unique_ptr<server::ClientConnection>> poll_conns_;
  std::thread poller_;
  std::mutex poller_mu_;
  std::condition_variable poller_cv_;
  bool poller_stop_ = false;

  /// The kStats/kMetrics endpoint; its sampler reads the polled shard
  /// state.
  server::Telemetry telemetry_;

  /// Makes choosing a dial's first shard and reserving a slot on it one
  /// step, so concurrent hellos cannot all take a shard's last slot.
  std::mutex pick_mu_;

  /// Sticky placement: session nonce -> shard index, bounded FIFO-ish (the
  /// lowest nonce is evicted past the cap). A reconnecting session lands on
  /// the shard that holds its replay state; migrations/re-homes update it.
  std::mutex place_mu_;
  std::map<std::uint64_t, std::uint32_t> placement_table_;
  static constexpr std::size_t kPlacementTableCap = 65536;
  static constexpr std::size_t kParkedFramesCap = 4096;
  std::atomic<std::uint64_t> epoch_{0};

  /// Standby state. standby_mode_ flips false exactly once (promotion);
  /// the sync socket/counters are poller-thread-only.
  std::atomic<bool> standby_mode_{false};
  std::optional<net::Socket> sync_sock_;
  std::uint64_t sync_token_ = 0;
  int sync_failures_ = 0;
  bool drain_applied_ = false;  ///< poller thread only

  /// Downstream sessions whose upstream died, awaiting re-home (fed by
  /// on_close, drained by the poller; rehome_pending_ under poller_mu_
  /// short-circuits the poll sleep).
  std::mutex rehome_mu_;
  std::vector<CtxPtr> rehome_;
  bool rehome_pending_ = false;

  std::atomic<bool> running_{false};
  std::chrono::steady_clock::time_point started_at_{};
  std::mutex stopped_mu_;
  std::condition_variable stopped_cv_;
  bool stopped_ = true;  ///< until start()
};

}  // namespace ewc::router
