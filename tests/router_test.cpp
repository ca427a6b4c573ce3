// Tests for the fill-aware fleet router.
//
// The placement policy (pick_shard) and the fleet stats fold
// (fold_fleet_stats) are pure functions, so their tests need no sockets:
// the fold tests pin the aggregation arithmetic over synthetic shard
// snapshots. The integration tests stand up two real in-process ewcd
// shards on UNIX sockets behind one Router and drive them with the real
// client, covering placement packing and spill, drain-based migration, flush
// fan-out, stats aggregation, and the router.forward fault site.
//
// In-process caveat: the obs::Registry is process-wide, so two in-process
// shards report the *same* registry and the fleet sums double count. The
// integration tests therefore assert placement state via
// Router::snapshots() and stats *structure* (shard.<i>.* breakdown keys,
// router.* gauges); the fold tests cover the arithmetic.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "consolidate/backend.hpp"
#include "fault/injector.hpp"
#include "gpusim/engine.hpp"
#include "obs/registry.hpp"
#include "power/power_model.hpp"
#include "router/router.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "workloads/paper_configs.hpp"

namespace ewc {
namespace {

using common::Duration;
using router::pick_shard;
using router::Router;
using router::RouterOptions;
using router::ShardSnapshot;

ShardSnapshot snap(double sessions, double inflight = 0,
                   double power_watts = 0) {
  ShardSnapshot s;
  s.sessions = sessions;
  s.inflight = inflight;
  s.power_watts = power_watts;
  return s;
}

/// A polled shard advertising a client limit; the router's poll connection
/// is its only other client unless `others` says more.
ShardSnapshot polled(double sessions, double max_clients,
                     double inflight = 0, double others = 1) {
  ShardSnapshot s = snap(sessions, inflight);
  s.max_clients = max_clients;
  s.other_clients = others;
  return s;
}

// ---- placement policy ----

TEST(PickShardTest, MostSessionsWinsLowestIndexOnTies) {
  EXPECT_EQ(pick_shard({polled(1, 64), polled(3, 64), polled(2, 64)}), 1u);
  EXPECT_EQ(pick_shard({polled(2, 64), polled(2, 64), polled(2, 64)}), 0u);
  EXPECT_EQ(pick_shard({polled(0, 64), polled(0, 64)}), 0u);
  // Power draw is telemetry only: it never steers placement.
  EXPECT_EQ(pick_shard({snap(2, 0, 90.0), snap(2, 0, 30.0)}), 0u);
}

TEST(PickShardTest, SkipsDeadDrainingAndBreakerOpenShards) {
  std::vector<ShardSnapshot> shards = {polled(5, 64), polled(4, 64),
                                       polled(3, 64), polled(0, 64)};
  shards[0].alive = false;
  shards[1].draining = true;
  shards[2].breaker_open = true;
  EXPECT_EQ(pick_shard(shards), 3u);
}

TEST(PickShardTest, ShardAtItsClientLimitIsSkipped) {
  // The router's poll connection holds one of the shard's slots: 6
  // sessions + 1 poll < 8 leaves room for one more, 7 + 1 does not.
  EXPECT_TRUE(router::has_headroom(polled(6, 8)));
  EXPECT_FALSE(router::has_headroom(polled(7, 8)));
  EXPECT_EQ(pick_shard({polled(6, 8), polled(1, 8)}), 0u);
  EXPECT_EQ(pick_shard({polled(7, 8), polled(1, 8)}), 1u);
}

TEST(PickShardTest, ConnectionsTheRouterDidNotPlaceTakeSlots) {
  // A standby router's poller and a directly connected client hold two
  // more of the shard's slots: 4 sessions + 3 others fill 7 of 8.
  EXPECT_TRUE(router::has_headroom(polled(4, 8, 0, 3)));
  EXPECT_FALSE(router::has_headroom(polled(5, 8, 0, 3)));
  EXPECT_EQ(pick_shard({polled(5, 8, 0, 3), polled(1, 8)}), 1u);
}

TEST(PickShardTest, ShardThatRefusedAHelloIsSkippedUntilThePoll) {
  ShardSnapshot refused = polled(2, 64);
  refused.refused = true;
  EXPECT_FALSE(router::has_headroom(refused));
  EXPECT_EQ(pick_shard({refused, polled(1, 64)}), 1u);
}

TEST(PickShardTest, UnpolledShardHasHeadroom) {
  // No advertised limit yet: any session count and backlog still fits.
  EXPECT_TRUE(router::has_headroom(snap(500, 500)));
  EXPECT_EQ(pick_shard({snap(500, 500), polled(1, 64)}), 0u);
}

TEST(PickShardTest, WithoutHeadroomTheLeastLoadedShardWins) {
  // Neither shard has room: fall back to the least sessions + inflight.
  EXPECT_EQ(pick_shard({polled(7, 8, 0), polled(5, 6, 4)}), 0u);
  EXPECT_EQ(pick_shard({polled(7, 8, 3), polled(5, 6, 4)}), 1u);
  // A shard with a free slot beats a less loaded full one, however deep
  // its backlog: the client limit is hard, the backlog is not.
  EXPECT_EQ(pick_shard({polled(299, 300, 0), polled(200, 300, 150)}), 1u);
  EXPECT_EQ(pick_shard({polled(7, 8), polled(5, 64)}), 1u);
}

TEST(PickShardTest, NoPlaceableShardIsNullopt) {
  EXPECT_EQ(pick_shard({}), std::nullopt);
  std::vector<ShardSnapshot> shards = {snap(0), snap(0), snap(0)};
  shards[0].alive = false;
  shards[1].draining = true;
  shards[2].breaker_open = true;
  EXPECT_EQ(pick_shard(shards), std::nullopt);
}

// ---- fleet stats fold ----

obs::HistogramSnapshot latencies(std::initializer_list<double> values,
                                 obs::HistogramParams params = {}) {
  obs::Histogram h(params);
  for (const double v : values) h.record(v);
  return h.snapshot();
}

TEST(FoldFleetStatsTest, SumsBreaksDownAndMergesPerShard) {
  std::vector<router::ShardStats> shards(3);
  shards[0].placement = snap(/*sessions=*/3, 0, /*power_watts=*/120.5);
  shards[0].migrated_out = 2;
  shards[0].polled.counters = {{"server.replies", 10},
                               {"backend.total_energy_joules", 1e16}};
  shards[0].polled.histograms["server.request_latency_seconds"] =
      latencies({0.01, 0.02});
  shards[1].placement = snap(1, 0, 80.0);
  shards[1].placement.alive = false;
  shards[1].polled.counters = {{"server.replies", 5},
                               {"backend.total_energy_joules", 1.0},
                               {"server.only_here", 7}};
  shards[1].polled.histograms["server.request_latency_seconds"] =
      latencies({0.5});
  shards[2].placement = snap(0);
  shards[2].placement.draining = true;
  shards[2].polled.counters = {{"backend.total_energy_joules", 1.0}};

  obs::RegistrySnapshot local;
  local.counters = {{"router.sessions_placed", 4}, {"server.replies", 1}};
  const auto out = router::fold_fleet_stats(local, shards);
  const auto& c = out.counters;

  // Plain names: the router's own value plus every shard's, summed in
  // shard-index order. 1e16 + 1 rounds back to 1e16 twice; the reverse
  // order would give 1e16 + 2.
  EXPECT_EQ(c.at("server.replies"), 16.0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(c.at("backend.total_energy_joules")),
            std::bit_cast<std::uint64_t>((1e16 + 1.0) + 1.0));
  EXPECT_NE(c.at("backend.total_energy_joules"), 1e16 + 2.0);
  EXPECT_EQ(c.at("server.only_here"), 7.0);
  EXPECT_EQ(c.at("router.sessions_placed"), 4.0);

  // The shard.<i>.* breakdown holds each shard's own counters only.
  EXPECT_EQ(c.at("shard.0.server.replies"), 10.0);
  EXPECT_EQ(c.at("shard.1.server.replies"), 5.0);
  EXPECT_EQ(c.at("shard.1.server.only_here"), 7.0);
  EXPECT_FALSE(c.contains("shard.0.server.only_here"));
  EXPECT_FALSE(c.contains("shard.2.server.replies"));
  EXPECT_EQ(c.at("shard.2.backend.total_energy_joules"), 1.0);

  // The router's per-shard gauges.
  const std::vector<std::array<double, 5>> gauges = {
      {3, 1, 0, 120.5, 2}, {1, 0, 0, 80.0, 0}, {0, 1, 1, 0, 0}};
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    const std::string p = "shard." + std::to_string(i) + ".router.";
    EXPECT_EQ(c.at(p + "placements"), gauges[i][0]) << p;
    EXPECT_EQ(c.at(p + "alive"), gauges[i][1]) << p;
    EXPECT_EQ(c.at(p + "draining"), gauges[i][2]) << p;
    EXPECT_EQ(c.at(p + "power_watts"), gauges[i][3]) << p;
    EXPECT_EQ(c.at(p + "migrated_out"), gauges[i][4]) << p;
  }
  EXPECT_EQ(c.at("router.shards"), 3.0);
  EXPECT_EQ(c.at("router.shards_alive"), 2.0);

  // Histograms merge by name across shards.
  const auto& h = out.histograms.at("server.request_latency_seconds");
  EXPECT_EQ(h.total, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 0.01 + 0.02 + 0.5);
}

TEST(FoldFleetStatsTest, SkipsAHistogramWithMismatchedGeometry) {
  obs::HistogramParams odd;
  odd.growth = 2.0;
  std::vector<router::ShardStats> shards(3);
  shards[0].polled.histograms["h"] = latencies({0.01});
  shards[1].polled.histograms["h"] = latencies({0.02, 0.03}, odd);
  shards[2].polled.histograms["h"] = latencies({0.04});
  obs::RegistrySnapshot out;
  ASSERT_NO_THROW(out = router::fold_fleet_stats({}, shards));
  const auto& h = out.histograms.at("h");
  EXPECT_EQ(h.params, obs::HistogramParams{});
  EXPECT_EQ(h.total, 2u);
  EXPECT_DOUBLE_EQ(h.sum, 0.01 + 0.04);
}

// ---- integration: two in-process shards behind one router ----

/// Re-arms the process-wide injector for one test (copied idiom from
/// fault_test).
class ArmGuard {
 public:
  explicit ArmGuard(const std::string& scenario, std::uint64_t seed = 42) {
    std::string err;
    ok_ = fault::Injector::instance().arm(scenario, seed, &err);
    EXPECT_TRUE(ok_) << scenario << ": " << err;
  }
  ~ArmGuard() { fault::Injector::instance().disarm(); }
  bool ok() const { return ok_; }

 private:
  bool ok_ = false;
};

class RouterFleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new gpusim::FluidEngine();
    model_ = new power::GpuPowerModel(power::default_device_model());
  }
  static void TearDownTestSuite() {
    delete model_;
    delete engine_;
    model_ = nullptr;
    engine_ = nullptr;
  }

  struct Shard {
    Shard(const std::string& path, int threshold, int max_clients) {
      consolidate::BackendOptions options;
      options.batch_threshold = threshold;
      backend = std::make_unique<consolidate::Backend>(
          *engine_, *model_, consolidate::TemplateRegistry::paper_defaults(),
          options);
      backend->set_cpu_profile("aes_encrypt",
                               workloads::encryption_12k().cpu);
      ::unlink(path.c_str());
      server::ServerOptions sopt;
      sopt.socket_path = path;
      sopt.max_clients = max_clients;
      server = std::make_unique<server::Server>(*backend, sopt);
      std::string error;
      started = server->start(&error);
      EXPECT_TRUE(started) << error;
    }
    ~Shard() {
      if (server && server->running()) server->stop();
    }
    std::unique_ptr<consolidate::Backend> backend;
    std::unique_ptr<server::Server> server;
    bool started = false;
  };

  static constexpr int kMaxClients = server::ServerOptions{}.max_clients;

  /// Two shards + a router on UNIX sockets, torn down in reverse order.
  /// Placement packs sessions onto the shard that holds the most, so a test
  /// that needs sessions on both shards gives one a small client limit
  /// (the router's poll connection takes one of its slots).
  struct Fleet {
    Fleet(const std::string& tag, int threshold,
          std::array<int, 2> max_clients = {kMaxClients, kMaxClients}) {
      const std::string dir = ::testing::TempDir();
      for (int i = 0; i < 2; ++i) {
        const auto path =
            dir + "ewc_router_" + tag + "_s" + std::to_string(i) + ".sock";
        shards.push_back(
            std::make_unique<Shard>(path, threshold, max_clients[i]));
        shard_paths.push_back(path);
      }
      RouterOptions ropt;
      ropt.listen = "unix:" + dir + "ewc_router_" + tag + ".sock";
      ::unlink((dir + "ewc_router_" + tag + ".sock").c_str());
      for (const auto& p : shard_paths) ropt.shards.push_back("unix:" + p);
      ropt.poll_interval = Duration::from_millis(100.0);
      ropt.dial_timeout = Duration::from_seconds(2.0);
      router = std::make_unique<Router>(ropt);
      std::string error;
      started = router->start(&error);
      EXPECT_TRUE(started) << error;
      // Placement reads each shard's advertised client limit from the
      // poller; wait for the first pass so every test places on it.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (started && std::chrono::steady_clock::now() < deadline) {
        const auto snaps = router->snapshots();
        if (std::all_of(snaps.begin(), snaps.end(), [](const auto& s) {
              return s.max_clients > 0;
            })) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    ~Fleet() {
      if (router && router->running()) router->stop();
      shards.clear();
    }

    std::unique_ptr<server::ClientConnection> connect(
        const std::string& owner) {
      std::string error;
      auto conn = server::ClientConnection::connect(
          router->endpoint(), owner, Duration::from_seconds(10.0), &error);
      EXPECT_NE(conn, nullptr) << owner << ": " << error;
      return conn;
    }

    /// A resilient (replay) client: the router may live-migrate or re-home
    /// its session. Pin `nonce` to resume another connection's session.
    std::unique_ptr<server::ClientConnection> connect_replay(
        const std::string& owner, std::uint64_t nonce = 0) {
      server::ClientOptions copt;
      copt.auto_reconnect = true;
      copt.session_nonce = nonce;
      std::string error;
      auto conn = server::ClientConnection::connect(
          router->endpoint(), owner, Duration::from_seconds(10.0), copt,
          &error);
      EXPECT_NE(conn, nullptr) << owner << ": " << error;
      return conn;
    }

    std::vector<std::unique_ptr<Shard>> shards;
    std::vector<std::string> shard_paths;
    std::unique_ptr<Router> router;
    bool started = false;
  };

  static consolidate::LaunchRequest aes_launch(const std::string& owner) {
    consolidate::LaunchRequest req;
    req.owner = owner;
    req.desc = workloads::encryption_12k().gpu;
    req.api_messages = 1;
    return req;
  }

  static gpusim::FluidEngine* engine_;
  static power::GpuPowerModel* model_;
};
gpusim::FluidEngine* RouterFleetTest::engine_ = nullptr;
power::GpuPowerModel* RouterFleetTest::model_ = nullptr;

TEST_F(RouterFleetTest, LaunchRoundTripsThroughTheRouter) {
  Fleet fleet("roundtrip", /*threshold=*/1);
  ASSERT_TRUE(fleet.started);
  auto conn = fleet.connect("rt-client");
  ASSERT_NE(conn, nullptr);
  const auto reply =
      conn->launch(aes_launch("rt-client"), Duration::from_seconds(60.0));
  EXPECT_TRUE(reply.ok) << reply.error;
  EXPECT_GT(reply.finish_time.seconds(), 0.0);
}

// Sessions pack onto shard 0 until its client limit (the router's poll
// connection counted) leaves no room; the next one spills to shard 1, and
// no client is ever answered "server full".
TEST_F(RouterFleetTest, SessionsSpillToTheNextShardAtTheClientLimit) {
  Fleet fleet("spill", /*threshold=*/1, /*max_clients=*/{4, kMaxClients});
  ASSERT_TRUE(fleet.started);
  const obs::Counter rejected =
      obs::Registry::instance().counter("server.connections.rejected");
  const double rejected_before = rejected.value();
  std::vector<std::unique_ptr<server::ClientConnection>> conns;
  for (int i = 0; i < 5; ++i) {
    conns.push_back(fleet.connect("spill-" + std::to_string(i)));
    ASSERT_NE(conns.back(), nullptr);
    const auto reply = conns.back()->launch(
        aes_launch("spill-" + std::to_string(i)), Duration::from_seconds(60.0));
    EXPECT_TRUE(reply.ok) << reply.error;
  }
  // 3 sessions + the poll connection fill shard 0's 4 slots.
  const auto snaps = fleet.router->snapshots();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].max_clients, 4.0);
  EXPECT_EQ(snaps[0].sessions, 3.0);
  EXPECT_EQ(snaps[1].sessions, 2.0);
  EXPECT_EQ(rejected.value(), rejected_before);

  // Disconnects release the placement.
  conns.clear();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto after = fleet.router->snapshots();
    if (after[0].sessions == 0.0 && after[1].sessions == 0.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto after = fleet.router->snapshots();
  EXPECT_EQ(after[0].sessions, 0.0);
  EXPECT_EQ(after[1].sessions, 0.0);
}

// A slot held by a connection the router did not place (another poller, a
// client that dialed the shard directly) still counts: the router reads the
// shard's live connection count and spills one session earlier, so again
// no client is answered "server full".
TEST_F(RouterFleetTest, SpillCountsConnectionsTheRouterDidNotPlace) {
  Fleet fleet("spill_other", /*threshold=*/1,
              /*max_clients=*/{4, kMaxClients});
  ASSERT_TRUE(fleet.started);
  std::string error;
  auto direct = server::ClientConnection::connect(
      "unix:" + fleet.shard_paths[0], "direct-poller",
      Duration::from_seconds(10.0), &error);
  ASSERT_NE(direct, nullptr) << error;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline &&
         fleet.router->snapshots()[0].other_clients < 2.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(fleet.router->snapshots()[0].other_clients, 2.0);

  const obs::Counter rejected =
      obs::Registry::instance().counter("server.connections.rejected");
  const double rejected_before = rejected.value();
  std::vector<std::unique_ptr<server::ClientConnection>> conns;
  for (int i = 0; i < 4; ++i) {
    conns.push_back(fleet.connect("other-" + std::to_string(i)));
    ASSERT_NE(conns.back(), nullptr);
    const auto reply = conns.back()->launch(
        aes_launch("other-" + std::to_string(i)), Duration::from_seconds(60.0));
    EXPECT_TRUE(reply.ok) << reply.error;
  }
  // 2 sessions + the router's poll + the direct client fill shard 0.
  const auto snaps = fleet.router->snapshots();
  EXPECT_EQ(snaps[0].sessions, 2.0);
  EXPECT_EQ(snaps[1].sessions, 2.0);
  EXPECT_EQ(rejected.value(), rejected_before);
}

// Hellos that arrive together are placed together: each placement reserves
// its slot when it picks the shard, so they cannot all take shard 0's last
// slot and meet "server full".
TEST_F(RouterFleetTest, ConcurrentHellosNeverOverfillAShard) {
  Fleet fleet("concurrent", /*threshold=*/1,
              /*max_clients=*/{6, kMaxClients});
  ASSERT_TRUE(fleet.started);
  const obs::Counter rejected =
      obs::Registry::instance().counter("server.connections.rejected");
  const double rejected_before = rejected.value();
  constexpr int kClients = 12;
  std::vector<std::unique_ptr<server::ClientConnection>> conns(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&fleet, &conns, i] {
      conns[i] = fleet.connect("burst-" + std::to_string(i));
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& conn : conns) ASSERT_NE(conn, nullptr);
  // At most 5 sessions + the poll connection on shard 0; the rest spill.
  const auto snaps = fleet.router->snapshots();
  EXPECT_LE(snaps[0].sessions, 5.0);
  EXPECT_EQ(snaps[0].sessions + snaps[1].sessions, kClients);
  EXPECT_EQ(rejected.value(), rejected_before);
}

TEST_F(RouterFleetTest, DrainingShardStopsReceivingNewSessions) {
  // Shard 1 fits three sessions, so the session placed after the undrain
  // goes back to shard 0.
  Fleet fleet("drain", /*threshold=*/1, /*max_clients=*/{kMaxClients, 4});
  ASSERT_TRUE(fleet.started);

  // One session lands on shard 0, then the operator drains it.
  auto pinned = fleet.connect("drain-pinned");
  ASSERT_NE(pinned, nullptr);
  ASSERT_EQ(fleet.router->snapshots()[0].sessions, 1.0);
  fleet.router->set_draining(0, true);

  // Every new session now lands on shard 1 (migration by attrition)...
  std::vector<std::unique_ptr<server::ClientConnection>> conns;
  for (int i = 0; i < 3; ++i) {
    conns.push_back(fleet.connect("drain-" + std::to_string(i)));
    ASSERT_NE(conns.back(), nullptr);
  }
  auto snaps = fleet.router->snapshots();
  EXPECT_TRUE(snaps[0].draining);
  EXPECT_EQ(snaps[0].sessions, 1.0);
  EXPECT_EQ(snaps[1].sessions, 3.0);

  // ...while the pinned session keeps working on the draining shard.
  const auto reply =
      pinned->launch(aes_launch("drain-pinned"), Duration::from_seconds(60.0));
  EXPECT_TRUE(reply.ok) << reply.error;

  // Undraining puts the shard back into rotation.
  fleet.router->set_draining(0, false);
  conns.push_back(fleet.connect("drain-return"));
  ASSERT_NE(conns.back(), nullptr);
  snaps = fleet.router->snapshots();
  EXPECT_FALSE(snaps[0].draining);
  EXPECT_EQ(snaps[0].sessions, 2.0);
}

// Forwarding is corked per pump turn: a shard's reply group crosses the
// router in one write, and every session still sees its frames in order.
TEST_F(RouterFleetTest, CorkedForwardingKeepsEachSessionsFrameOrder) {
  Fleet fleet("cork", /*threshold=*/16);
  ASSERT_TRUE(fleet.started);
  constexpr int kLaunches = 64;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<consolidate::CompletionReply> replies;  // arrival order
  auto conn = fleet.connect("cork");
  ASSERT_NE(conn, nullptr);
  auto& registry = obs::Registry::instance();
  const auto frames = [&] {
    return registry.counter("router.forwarded_frames").value() +
           registry.counter("router.returned_frames").value();
  };
  const double frames_before = frames();
  const double writes_before =
      registry.counter("router.forward_writes").value();
  for (int i = 1; i <= kLaunches; ++i) {
    // Owners sort like the request ids, so the backend runs each group in
    // launch order and answers it in that order.
    char owner[32];
    std::snprintf(owner, sizeof owner, "cork#%04d", i);
    ASSERT_NE(conn->launch_async(aes_launch(owner),
                                 [&](const consolidate::CompletionReply& r) {
                                   std::lock_guard lock(mu);
                                   replies.push_back(r);
                                   cv.notify_all();
                                 }),
              0u);
  }
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60), [&] {
      return replies.size() == static_cast<std::size_t>(kLaunches);
    }));
    for (int i = 0; i < kLaunches; ++i) {
      EXPECT_TRUE(replies[i].ok) << replies[i].error;
      EXPECT_EQ(replies[i].request_id, static_cast<std::uint64_t>(i + 1));
    }
  }
  conn.reset();
  const double forwarded = frames() - frames_before;
  const double writes =
      registry.counter("router.forward_writes").value() - writes_before;
  EXPECT_EQ(forwarded, 2.0 * kLaunches);
  EXPECT_GE(writes, 1.0);
  EXPECT_LT(writes, forwarded);
}

TEST_F(RouterFleetTest, FlushFansOutToEveryShard) {
  // Threshold 4 so nothing executes on its own: a single client's flush
  // must push the *other* shard's pending batch through too.
  // Shard 0 fits one session (plus the router's poll connection).
  Fleet fleet("flush", /*threshold=*/4, /*max_clients=*/{2, kMaxClients});
  ASSERT_TRUE(fleet.started);

  auto a = fleet.connect("flush-a");  // placed on shard 0
  auto b = fleet.connect("flush-b");  // placed on shard 1
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(fleet.router->snapshots()[0].sessions, 1.0);
  ASSERT_EQ(fleet.router->snapshots()[1].sessions, 1.0);

  auto reply_b = std::make_shared<std::promise<consolidate::CompletionReply>>();
  auto done_b = reply_b->get_future();
  ASSERT_NE(b->launch_async(aes_launch("flush-b"),
                            [reply_b](const consolidate::CompletionReply& r) {
                              reply_b->set_value(r);
                            }),
            0u);
  // The launch sits below threshold on shard 1: no completion yet.
  EXPECT_EQ(done_b.wait_for(std::chrono::milliseconds(300)),
            std::future_status::timeout);

  // Client A (shard 0) flushes; the router fans the flush out fleet-wide.
  EXPECT_TRUE(a->flush(Duration::from_seconds(30.0)));
  ASSERT_EQ(done_b.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  const auto reply = done_b.get();
  EXPECT_TRUE(reply.ok) << reply.error;
}

TEST_F(RouterFleetTest, StatsAggregateCarriesPerShardBreakdown) {
  // Shard 0 fits one session, so the two sessions land on both shards.
  Fleet fleet("stats", /*threshold=*/1, /*max_clients=*/{2, kMaxClients});
  ASSERT_TRUE(fleet.started);
  auto a = fleet.connect("stats-a");
  auto b = fleet.connect("stats-b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(a->launch(aes_launch("stats-a"), Duration::from_seconds(60.0)).ok);
  EXPECT_TRUE(b->launch(aes_launch("stats-b"), Duration::from_seconds(60.0)).ok);

  const auto stats = a->stats(true, Duration::from_seconds(30.0));
  ASSERT_TRUE(stats.has_value());
  const auto& c = stats->counters;
  ASSERT_TRUE(c.count("router.shards"));
  EXPECT_EQ(c.at("router.shards"), 2.0);
  EXPECT_EQ(c.at("router.shards_alive"), 2.0);
  EXPECT_GE(c.at("router.sessions_placed"), 2.0);
  // Per-shard breakdown keys exist for both shards, and each shard reports
  // its own placement gauge.
  for (int i = 0; i < 2; ++i) {
    const std::string prefix = "shard." + std::to_string(i) + ".";
    ASSERT_TRUE(c.count(prefix + "router.placements")) << prefix;
    ASSERT_TRUE(c.count(prefix + "router.alive")) << prefix;
    EXPECT_EQ(c.at(prefix + "router.alive"), 1.0) << prefix;
    EXPECT_TRUE(c.count(prefix + "server.replies")) << prefix;
  }
  // The fleet-wide view reads like a single daemon's: plain counter names
  // are present (summed across shards).
  EXPECT_TRUE(c.count("server.replies"));
  EXPECT_TRUE(c.count("backend.total_energy_joules"));
}

TEST_F(RouterFleetTest, ForwardDropFaultTimesOutOneLaunchThenRecovers) {
  Fleet fleet("fwd-drop", /*threshold=*/1);
  ASSERT_TRUE(fleet.started);
  auto conn = fleet.connect("drop-client");
  ASSERT_NE(conn, nullptr);

  // The first forwarded frame (this launch) is dropped in the router; the
  // client's wait must expire rather than hang or crash anything.
  ArmGuard guard("router.forward=drop:times=1");
  const auto lost =
      conn->launch(aes_launch("drop-client"), Duration::from_seconds(1.0));
  EXPECT_FALSE(lost.ok);
  EXPECT_EQ(fault::Injector::instance().fired("router.forward"), 1u);

  // The rule is exhausted: the pairing is intact and the next launch works.
  const auto ok =
      conn->launch(aes_launch("drop-client"), Duration::from_seconds(60.0));
  EXPECT_TRUE(ok.ok) << ok.error;
}

TEST_F(RouterFleetTest, DeadShardFailsOverToTheSurvivor) {
  Fleet fleet("failover", /*threshold=*/1);
  ASSERT_TRUE(fleet.started);

  // Kill shard 0 outright; placement must route every new session to
  // shard 1 (dial failure → fallback), and the poller must mark shard 0
  // not alive.
  fleet.shards[0]->server->stop();
  std::vector<std::unique_ptr<server::ClientConnection>> conns;
  for (int i = 0; i < 2; ++i) {
    conns.push_back(fleet.connect("failover-" + std::to_string(i)));
    ASSERT_NE(conns.back(), nullptr);
    const auto reply = conns.back()->launch(
        aes_launch("failover-" + std::to_string(i)),
        Duration::from_seconds(60.0));
    EXPECT_TRUE(reply.ok) << reply.error;
  }
  const auto snaps = fleet.router->snapshots();
  EXPECT_EQ(snaps[0].sessions, 0.0);
  EXPECT_EQ(snaps[1].sessions, 2.0);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (!fleet.router->snapshots()[0].alive) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_FALSE(fleet.router->snapshots()[0].alive);
  EXPECT_TRUE(fleet.router->snapshots()[1].alive);
}

// ---- live migration, re-home, and the replicated front door ----

TEST_F(RouterFleetTest, DrainLiveMigratesIdleReplaySessions) {
  Fleet fleet("livemig", /*threshold=*/1);
  ASSERT_TRUE(fleet.started);
  auto conn = fleet.connect_replay("livemig-client");
  ASSERT_NE(conn, nullptr);
  const auto original = conn->launch(aes_launch("livemig-client"),
                                     Duration::from_seconds(60.0));
  ASSERT_TRUE(original.ok) << original.error;
  ASSERT_EQ(fleet.router->snapshots()[0].sessions, 1.0);

  const obs::Counter migrated =
      obs::Registry::instance().counter("router.sessions_migrated");
  const double migrated_before = migrated.value();
  fleet.router->set_draining(0, true);

  // The drain poller exports + imports + swaps the upstream underneath the
  // untouched client connection.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto snaps = fleet.router->snapshots();
    if (snaps[0].sessions == 0.0 && snaps[1].sessions == 1.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const auto snaps = fleet.router->snapshots();
  EXPECT_EQ(snaps[0].sessions, 0.0);
  EXPECT_EQ(snaps[1].sessions, 1.0);
  EXPECT_GE(migrated.value(), migrated_before + 1.0);

  // The client never noticed: no reconnect, and the session keeps serving.
  const auto after =
      conn->launch(aes_launch("livemig-client"), Duration::from_seconds(60.0));
  EXPECT_TRUE(after.ok) << after.error;
  EXPECT_EQ(conn->reconnects(), 0u);

  // The migrated dedup state answers replays bit-identically: resume the
  // session (pinned nonce → sticky placement on the target shard) and
  // re-issue the first launch.
  const std::uint64_t nonce = conn->session();
  conn.reset();
  const obs::Counter replays =
      obs::Registry::instance().counter("server.replayed_requests");
  const double replays_before = replays.value();
  auto resumed = fleet.connect_replay("livemig-client", nonce);
  ASSERT_NE(resumed, nullptr);
  const auto replayed = resumed->launch(aes_launch("livemig-client"),
                                        Duration::from_seconds(60.0));
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(replayed.finish_time.seconds()),
            std::bit_cast<std::uint64_t>(original.finish_time.seconds()));
  EXPECT_EQ(replayed.where, original.where);
  EXPECT_GE(replays.value(), replays_before + 1.0);
}

TEST_F(RouterFleetTest, HandoffFaultAbortsMigrationThenRetrySucceeds) {
  Fleet fleet("handoff-fault", /*threshold=*/1);
  ASSERT_TRUE(fleet.started);
  auto conn = fleet.connect_replay("handoff-client");
  ASSERT_NE(conn, nullptr);
  ASSERT_TRUE(
      conn->launch(aes_launch("handoff-client"), Duration::from_seconds(60.0))
          .ok);

  const obs::Counter failed =
      obs::Registry::instance().counter("router.migrations_failed");
  const double failed_before = failed.value();
  ArmGuard guard("router.handoff=fail:times=1");
  fleet.router->set_draining(0, true);

  // First handoff attempt hits the fault and aborts (source authoritative);
  // the next drain tick retries and succeeds.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    if (fleet.router->snapshots()[0].sessions == 0.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(fleet.router->snapshots()[0].sessions, 0.0);
  EXPECT_EQ(fault::Injector::instance().fired("router.handoff"), 1u);
  EXPECT_GE(failed.value(), failed_before + 1.0);

  // The aborted attempt never disturbed the client.
  const auto reply =
      conn->launch(aes_launch("handoff-client"), Duration::from_seconds(60.0));
  EXPECT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(conn->reconnects(), 0u);
}

TEST_F(RouterFleetTest, ShardMigrateFaultLeavesSourceAuthoritative) {
  Fleet fleet("srvmig-fault", /*threshold=*/1);
  ASSERT_TRUE(fleet.started);
  auto conn = fleet.connect_replay("srvfault-client");
  ASSERT_NE(conn, nullptr);
  ASSERT_TRUE(
      conn->launch(aes_launch("srvfault-client"), Duration::from_seconds(60.0))
          .ok);

  const obs::Counter failed =
      obs::Registry::instance().counter("router.migrations_failed");
  const double failed_before = failed.value();
  // The *shard* refuses the export this time; the router must record a
  // failed migration, leave the session where it is, and retry.
  ArmGuard guard("server.migrate=fail:times=1");
  fleet.router->set_draining(0, true);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    if (fleet.router->snapshots()[0].sessions == 0.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(fleet.router->snapshots()[0].sessions, 0.0);
  EXPECT_GE(fault::Injector::instance().fired("server.migrate"), 1u);
  EXPECT_GE(failed.value(), failed_before + 1.0);

  const auto reply = conn->launch(aes_launch("srvfault-client"),
                                  Duration::from_seconds(60.0));
  EXPECT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(conn->reconnects(), 0u);
}

TEST_F(RouterFleetTest, ShardKillRehomesReplaySessionsInPlace) {
  Fleet fleet("rehome", /*threshold=*/1);
  ASSERT_TRUE(fleet.started);
  auto conn = fleet.connect_replay("rehome-client");
  ASSERT_NE(conn, nullptr);
  ASSERT_TRUE(
      conn->launch(aes_launch("rehome-client"), Duration::from_seconds(60.0))
          .ok);
  ASSERT_EQ(fleet.router->snapshots()[0].sessions, 1.0);

  const obs::Counter rehomed =
      obs::Registry::instance().counter("router.sessions_rehomed");
  const double rehomed_before = rehomed.value();
  // SIGKILL equivalent for an in-process shard: the server vanishes and the
  // router's upstream socket dies unclean. The router re-homes the session
  // onto the survivor instead of cutting the client loose.
  fleet.shards[0]->server->stop();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    if (rehomed.value() >= rehomed_before + 1.0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(rehomed.value(), rehomed_before + 1.0);

  // Same connection keeps launching — the failover happened entirely inside
  // the router.
  const auto reply =
      conn->launch(aes_launch("rehome-client"), Duration::from_seconds(60.0));
  EXPECT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(conn->reconnects(), 0u);
}

/// Collects launch_async replies in arrival order.
struct ReplyLog {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<consolidate::CompletionReply> replies;

  std::function<void(const consolidate::CompletionReply&)> callback() {
    return [this](const consolidate::CompletionReply& r) {
      std::lock_guard lock(mu);
      replies.push_back(r);
      cv.notify_all();
    };
  }
  bool wait_for(std::size_t n, std::chrono::seconds timeout) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, timeout, [&] { return replies.size() >= n; });
  }
};

/// Requests the shard's backend has executed.
int executed(const consolidate::Backend& backend) {
  int n = 0;
  for (const auto& report : backend.reports()) n += report.num_instances;
  return n;
}

// Launches sent while a drain migration holds the session parked (the
// handoff delay keeps the window open) are replayed onto the target shard
// by the swap: all complete, in launch order, and none reaches the source.
TEST_F(RouterFleetTest, LaunchesParkedDuringMigrationCompleteOnTheTarget) {
  Fleet fleet("park-mig", /*threshold=*/1);
  ASSERT_TRUE(fleet.started);
  ReplyLog log;  // outlives the connection that calls into it
  auto conn = fleet.connect_replay("park-mig");
  ASSERT_NE(conn, nullptr);
  ASSERT_TRUE(
      conn->launch(aes_launch("park-mig"), Duration::from_seconds(60.0)).ok);
  ASSERT_EQ(fleet.router->snapshots()[0].sessions, 1.0);
  const int source_before = executed(*fleet.shards[0]->backend);
  const int target_before = executed(*fleet.shards[1]->backend);

  const obs::Counter migrated =
      obs::Registry::instance().counter("router.sessions_migrated");
  const double migrated_before = migrated.value();
  ArmGuard guard("router.handoff=delay:dur=0.3");
  fleet.router->set_draining(0, true);
  auto& injector = fault::Injector::instance();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (injector.fired("router.handoff") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(injector.fired("router.handoff"), 1u);

  // The session is latched for the move: these park in the router.
  constexpr std::size_t kLaunches = 8;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < kLaunches; ++i) {
    ids.push_back(conn->launch_async(aes_launch("park-mig"), log.callback()));
    ASSERT_NE(ids.back(), 0u);
  }
  ASSERT_TRUE(log.wait_for(kLaunches, std::chrono::seconds(60)));
  {
    std::lock_guard lock(log.mu);
    ASSERT_EQ(log.replies.size(), kLaunches);
    for (std::size_t i = 0; i < kLaunches; ++i) {
      EXPECT_TRUE(log.replies[i].ok) << log.replies[i].error;
      EXPECT_EQ(log.replies[i].request_id, ids[i]) << "reply " << i;
    }
  }
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (migrated.value() < migrated_before + 1.0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(migrated.value(), migrated_before + 1.0);
  EXPECT_EQ(executed(*fleet.shards[0]->backend), source_before);
  EXPECT_EQ(executed(*fleet.shards[1]->backend),
            target_before + static_cast<int>(kLaunches));
  EXPECT_EQ(conn->reconnects(), 0u);
}

// Launches sent right after the session's shard dies either reach the dead
// upstream (and come back through the re-home's inflight replay) or park
// until the re-home lands. Each completes exactly once, in place.
TEST_F(RouterFleetTest, LaunchesRacingAShardDeathCompleteExactlyOnce) {
  Fleet fleet("park-rehome", /*threshold=*/1);
  ASSERT_TRUE(fleet.started);
  ReplyLog log;  // outlives the connection that calls into it
  auto conn = fleet.connect_replay("park-rehome");
  ASSERT_NE(conn, nullptr);
  ASSERT_TRUE(
      conn->launch(aes_launch("park-rehome"), Duration::from_seconds(60.0))
          .ok);
  ASSERT_EQ(fleet.router->snapshots()[0].sessions, 1.0);

  fleet.shards[0]->server->stop();
  constexpr std::size_t kLaunches = 8;
  for (std::size_t i = 0; i < kLaunches; ++i) {
    ASSERT_NE(conn->launch_async(aes_launch("park-rehome"), log.callback()),
              0u);
  }
  ASSERT_TRUE(log.wait_for(kLaunches, std::chrono::seconds(60)));
  // A duplicate would land after the last first answer; give it the time.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::lock_guard lock(log.mu);
  EXPECT_EQ(log.replies.size(), kLaunches);
  std::set<std::uint64_t> seen;
  for (const auto& r : log.replies) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(seen.insert(r.request_id).second)
        << "request " << r.request_id << " answered twice";
  }
  EXPECT_EQ(conn->reconnects(), 0u);
}

TEST_F(RouterFleetTest, StandbyRefusesHellosAndPromotesWhenPrimaryDies) {
  Fleet fleet("standby", /*threshold=*/1);
  ASSERT_TRUE(fleet.started);

  const std::string dir = ::testing::TempDir();
  RouterOptions sopt;
  sopt.listen = "unix:" + dir + "ewc_router_standby_b.sock";
  ::unlink((dir + "ewc_router_standby_b.sock").c_str());
  for (const auto& p : fleet.shard_paths) sopt.shards.push_back("unix:" + p);
  sopt.poll_interval = Duration::from_millis(100.0);
  sopt.dial_timeout = Duration::from_seconds(2.0);
  sopt.standby_of = fleet.router->endpoint();
  sopt.standby_failures = 2;
  auto standby = std::make_unique<Router>(sopt);
  std::string error;
  ASSERT_TRUE(standby->start(&error)) << error;
  EXPECT_TRUE(standby->standby());

  // An unpromoted standby refuses hellos so clients rotate on to the
  // primary.
  std::string refused_error;
  auto refused = server::ClientConnection::connect(
      standby->endpoint(), "too-early", Duration::from_seconds(2.0),
      &refused_error);
  EXPECT_EQ(refused, nullptr);
  EXPECT_NE(refused_error.find("standby"), std::string::npos)
      << refused_error;

  // Place a replay session on the primary and let the standby pull the
  // placement epoch.
  auto conn = fleet.connect_replay("standby-client");
  ASSERT_NE(conn, nullptr);
  ASSERT_TRUE(
      conn->launch(aes_launch("standby-client"), Duration::from_seconds(60.0))
          .ok);
  const std::uint64_t primary_epoch = fleet.router->epoch();
  ASSERT_GE(primary_epoch, 1u);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (standby->epoch() >= primary_epoch) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(standby->epoch(), primary_epoch);

  // Kill the primary: after standby_failures missed pulls the standby
  // promotes itself and starts serving.
  conn.reset();
  fleet.router->stop();
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    if (!standby->standby()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_FALSE(standby->standby());

  auto promoted_conn = server::ClientConnection::connect(
      standby->endpoint(), "after-promotion", Duration::from_seconds(10.0),
      &error);
  ASSERT_NE(promoted_conn, nullptr) << error;
  const auto reply = promoted_conn->launch(aes_launch("after-promotion"),
                                           Duration::from_seconds(60.0));
  EXPECT_TRUE(reply.ok) << reply.error;
  promoted_conn.reset();
  standby->stop();
}

}  // namespace
}  // namespace ewc
