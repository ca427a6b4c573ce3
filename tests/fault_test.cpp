// Tests for the fault-injection substrate and the robustness paths it
// exercises: scenario grammar, deterministic gating, retry backoff
// schedules, torn/corrupt/short writes at the socket and frame layers, the
// client's fail-fast waiter demux, reconnect + replay, the circuit breaker,
// and degraded-mode consolidation when the decision engine faults.
//
// The Injector is process-wide, so every test that arms a scenario does it
// through ArmGuard (disarms on scope exit); gtest runs tests sequentially
// within one binary, so guards cannot overlap.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "consolidate/backend.hpp"
#include "consolidate/frontend.hpp"
#include "cudart/runtime.hpp"
#include "fault/injector.hpp"
#include "net/frame.hpp"
#include "net/retry.hpp"
#include "net/socket.hpp"
#include "obs/registry.hpp"
#include "power/power_model.hpp"
#include "server/client.hpp"
#include "server/protocol_wire.hpp"
#include "server/server.hpp"
#include "workloads/paper_configs.hpp"
#include "workloads/registry.hpp"

namespace ewc {
namespace {

using common::Duration;
using net::Deadline;
using net::IoStatus;

/// Arm a scenario for one test scope; disarm on exit no matter what.
class ArmGuard {
 public:
  explicit ArmGuard(const std::string& scenario, std::uint64_t seed = 42) {
    std::string err;
    ok_ = fault::Injector::instance().arm(scenario, seed, &err);
    EXPECT_TRUE(ok_) << err;
  }
  ~ArmGuard() { fault::Injector::instance().disarm(); }
  bool ok() const { return ok_; }

 private:
  bool ok_ = false;
};

// ---- scenario grammar ----

TEST(InjectorTest, ParsesFullRuleGrammar) {
  std::string err;
  const auto rules = fault::parse_scenario(
      "net.send=short_write:p=0.5:after=3:times=7:bytes=4;"
      "decision.decide=stall:dur=0.25",
      &err);
  ASSERT_TRUE(rules.has_value()) << err;
  ASSERT_EQ(rules->size(), 2u);
  EXPECT_EQ((*rules)[0].site, "net.send");
  EXPECT_EQ((*rules)[0].kind, fault::ActionKind::kShortWrite);
  EXPECT_DOUBLE_EQ((*rules)[0].probability, 0.5);
  EXPECT_EQ((*rules)[0].after, 3);
  EXPECT_EQ((*rules)[0].times, 7);
  EXPECT_EQ((*rules)[0].bytes, 4u);
  EXPECT_EQ((*rules)[1].site, "decision.decide");
  EXPECT_EQ((*rules)[1].kind, fault::ActionKind::kStall);
  EXPECT_DOUBLE_EQ((*rules)[1].duration.seconds(), 0.25);
}

TEST(InjectorTest, RejectsUnknownSiteKindAndOption) {
  std::string err;
  EXPECT_FALSE(fault::parse_scenario("nonexistent.site=fail", &err));
  EXPECT_NE(err.find("nonexistent.site"), std::string::npos) << err;
  EXPECT_FALSE(fault::parse_scenario("net.send=explode", &err));
  EXPECT_NE(err.find("explode"), std::string::npos) << err;
  EXPECT_FALSE(fault::parse_scenario("net.send=fail:frequency=2", &err));
  EXPECT_FALSE(fault::parse_scenario("net.send", &err));
  EXPECT_FALSE(fault::parse_scenario("net.send=fail:p=nope", &err));
}

TEST(InjectorTest, ArmRejectsBadScenarioAndStaysDisarmed) {
  auto& inj = fault::Injector::instance();
  std::string err;
  EXPECT_FALSE(inj.arm("bogus.site=fail", 1, &err));
  EXPECT_FALSE(inj.armed());
  EXPECT_FALSE(fault::hit("net.send"));
}

TEST(InjectorTest, AfterAndTimesGateDeterministically) {
  ArmGuard guard("net.send=fail:after=2:times=3");
  auto& inj = fault::Injector::instance();
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) {
    fired.push_back(static_cast<bool>(inj.hit("net.send")));
  }
  // Hits 1-2 skipped, 3-5 fire, 6+ exhausted.
  const std::vector<bool> want = {false, false, true, true,
                                  true,  false, false, false};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(inj.fired("net.send"), 3u);
  EXPECT_EQ(inj.total_fired(), 3u);
  EXPECT_EQ(inj.fired("net.recv"), 0u);
}

TEST(InjectorTest, ProbabilisticRulesAreSeedDeterministic) {
  auto pattern = [](std::uint64_t seed) {
    ArmGuard guard("net.send=fail:p=0.5", seed);
    auto& inj = fault::Injector::instance();
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(static_cast<bool>(inj.hit("net.send")));
    }
    return fired;
  };
  const auto a = pattern(7);
  const auto b = pattern(7);
  EXPECT_EQ(a, b);  // same seed, same script
  int fires = 0;
  for (const bool f : a) fires += f ? 1 : 0;
  EXPECT_GT(fires, 8);   // p=0.5 over 64 draws is nowhere near 0...
  EXPECT_LT(fires, 56);  // ...or 64
}

TEST(InjectorTest, DisarmedHitIsFreeAndInert) {
  auto& inj = fault::Injector::instance();
  inj.disarm();
  EXPECT_FALSE(inj.armed());
  EXPECT_FALSE(fault::hit("decision.decide"));
}

// ---- retry backoff schedule ----

TEST(RetryPolicyTest, UnjitteredScheduleGrowsAndCaps) {
  net::RetryPolicy policy;
  policy.initial_backoff = Duration::from_millis(50.0);
  policy.max_backoff = Duration::from_seconds(1.0);
  policy.multiplier = 2.0;
  policy.jitter = 0.0;
  common::Rng rng(1);
  EXPECT_DOUBLE_EQ(policy.backoff(1, rng).seconds(), 0.05);
  EXPECT_DOUBLE_EQ(policy.backoff(2, rng).seconds(), 0.10);
  EXPECT_DOUBLE_EQ(policy.backoff(3, rng).seconds(), 0.20);
  EXPECT_DOUBLE_EQ(policy.backoff(10, rng).seconds(), 1.0);  // capped
}

TEST(RetryPolicyTest, JitterIsBoundedAndSeedDeterministic) {
  net::RetryPolicy policy;  // defaults: jitter 0.1
  auto schedule = [&policy](std::uint64_t seed) {
    common::Rng rng(seed);
    std::vector<double> delays;
    for (int a = 1; a <= 8; ++a) delays.push_back(policy.backoff(a, rng).seconds());
    return delays;
  };
  const auto a = schedule(99);
  EXPECT_EQ(a, schedule(99));
  common::Rng rng(3);
  for (int attempt = 1; attempt <= 12; ++attempt) {
    const double base =
        std::min(policy.max_backoff.seconds(),
                 policy.initial_backoff.seconds() *
                     std::pow(policy.multiplier, attempt - 1));
    const double d = policy.backoff(attempt, rng).seconds();
    EXPECT_GE(d, base * (1.0 - policy.jitter) - 1e-12);
    EXPECT_LE(d, base * (1.0 + policy.jitter) + 1e-12);
  }
}

// ---- socket / frame layer injection ----

class SocketPairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a_ = net::Socket(fds[0]);
    b_ = net::Socket(fds[1]);
  }

  net::Socket a_;
  net::Socket b_;
};

std::vector<std::byte> pattern_payload(std::size_t n) {
  std::vector<std::byte> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::byte>((i * 37 + 11) & 0xFF);
  }
  return p;
}

// Satellite: send_exact must survive being forced through 3-byte chunks —
// the regression guard for the partial-send accounting in the write loop.
TEST_F(SocketPairTest, ShortWriteInjectionStillDeliversWholeFrame) {
  ArmGuard guard("net.send=short_write:bytes=3");
  const auto payload = pattern_payload(300);
  std::string err;
  std::thread writer([&] {
    EXPECT_EQ(net::write_frame(a_, 3, payload, Deadline::never(), &err),
              IoStatus::kOk)
        << err;
  });
  net::Frame frame;
  std::string rerr;
  EXPECT_EQ(net::read_frame(b_, &frame, Deadline::after(
                                Duration::from_seconds(10.0)),
                            &rerr),
            IoStatus::kOk)
      << rerr;
  writer.join();
  EXPECT_EQ(frame.type, 3);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_GE(fault::Injector::instance().fired("net.send"), 1u);
}

// `net.send=delay` must actually sleep before the write proceeds — the
// regression guard for the fault switch silently ignoring kDelay.
TEST_F(SocketPairTest, DelayInjectionDefersButStillDeliversFrame) {
  ArmGuard guard("net.send=delay:dur=0.05:times=1");
  const auto payload = pattern_payload(64);
  std::string err;
  const auto t0 = std::chrono::steady_clock::now();
  std::thread writer([&] {
    EXPECT_EQ(net::write_frame(a_, 3, payload, Deadline::never(), &err),
              IoStatus::kOk)
        << err;
  });
  net::Frame frame;
  std::string rerr;
  EXPECT_EQ(net::read_frame(b_, &frame, Deadline::after(
                                Duration::from_seconds(10.0)),
                            &rerr),
            IoStatus::kOk)
      << rerr;
  writer.join();
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_GE(elapsed, 0.05);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_GE(fault::Injector::instance().fired("net.send"), 1u);
}

TEST_F(SocketPairTest, InjectedSendFailureSurfacesAsError) {
  ArmGuard guard("net.send=fail");
  const auto payload = pattern_payload(16);
  std::string err;
  EXPECT_EQ(net::write_frame(a_, 3, payload, Deadline::never(), &err),
            IoStatus::kError);
  EXPECT_NE(err.find("injected"), std::string::npos) << err;
}

TEST_F(SocketPairTest, CorruptInjectionFlipsOneBitOnTheWire) {
  ArmGuard guard("net.frame.send=corrupt", /*seed=*/5);
  const auto payload = pattern_payload(64);
  std::string err;
  ASSERT_EQ(net::write_frame(a_, 3, payload, Deadline::never(), &err),
            IoStatus::kOk)
      << err;
  a_.shutdown_rw();
  // The flipped bit lands either in the header (read_frame rejects the
  // stream) or in the payload (delivered, but not what was sent). Either
  // way the corruption must be *observable* — never a silent pass-through.
  net::Frame frame;
  std::string rerr;
  const auto s = net::read_frame(
      b_, &frame, Deadline::after(Duration::from_seconds(10.0)), &rerr);
  if (s == IoStatus::kOk) {
    EXPECT_TRUE(frame.type != 3 || frame.payload != payload);
  } else {
    EXPECT_EQ(s, IoStatus::kError);
  }
  EXPECT_EQ(fault::Injector::instance().fired("net.frame.send"), 1u);
}

TEST_F(SocketPairTest, TornCloseMidFrameIsACleanReaderError) {
  ArmGuard guard("net.frame.send=close:bytes=5");
  const auto payload = pattern_payload(64);
  std::string err;
  EXPECT_EQ(net::write_frame(a_, 3, payload, Deadline::never(), &err),
            IoStatus::kError);
  // The reader got 5 bytes of a 12-byte header, then EOF: a protocol error,
  // not a hang and not a clean kEof.
  net::Frame frame;
  std::string rerr;
  EXPECT_EQ(net::read_frame(b_, &frame,
                            Deadline::after(Duration::from_seconds(10.0)),
                            &rerr),
            IoStatus::kError);
}

TEST_F(SocketPairTest, DropInjectionReportsSuccessSendsNothing) {
  ArmGuard guard("net.frame.send=drop");
  const auto payload = pattern_payload(32);
  std::string err;
  EXPECT_EQ(net::write_frame(a_, 3, payload, Deadline::never(), &err),
            IoStatus::kOk);
  net::Frame frame;
  std::string rerr;
  EXPECT_EQ(net::read_frame(b_, &frame,
                            Deadline::after(Duration::from_millis(100.0)),
                            &rerr),
            IoStatus::kTimeout);
}

TEST_F(SocketPairTest, RecvFailureInjection) {
  ArmGuard guard("net.recv=fail");
  const auto payload = pattern_payload(16);
  std::string err;
  // The writer side is clean; the reader's recv_exact is scripted to fail.
  {
    fault::Injector::instance().disarm();
    ASSERT_EQ(net::write_frame(a_, 3, payload, Deadline::never(), &err),
              IoStatus::kOk);
    std::string rearm_err;
    ASSERT_TRUE(fault::Injector::instance().arm("net.recv=fail", 42,
                                                &rearm_err));
  }
  net::Frame frame;
  std::string rerr;
  EXPECT_EQ(net::read_frame(b_, &frame,
                            Deadline::after(Duration::from_seconds(5.0)),
                            &rerr),
            IoStatus::kError);
  EXPECT_NE(rerr.find("injected"), std::string::npos) << rerr;
}

// ---- protocol fuzzing (satellite: 10k adversarial frames) ----

// The EWC1 parser and codecs must treat arbitrary bytes as, at worst, a
// protocol error: no crash, no hang, no unbounded allocation. Three attack
// shapes: pure noise, a valid header over a noise payload, and a valid
// encoded message with one bit flipped.
TEST(FuzzTest, TenThousandAdversarialFramesNeverCrashTheParser) {
  std::mt19937_64 rng(0xF022);  // fixed seed: reproducible corpus

  // A realistic valid frame to mutate: an encoded stats reply.
  server::StatsReplyMsg stats;
  stats.token = 77;
  stats.uptime_micros = 123456;
  stats.counters["server.requests"] = 8;
  stats.counters["server.replies"] = 8;
  const auto stats_payload = server::encode_stats_reply(stats);

  int ok_frames = 0, error_frames = 0, eof_frames = 0;
  for (int iter = 0; iter < 10000; ++iter) {
    std::vector<std::byte> wire;
    const int mode = iter % 3;
    if (mode == 0) {
      // Pure noise, random length 0..63 (often a truncated header).
      wire.resize(rng() % 64);
      for (auto& b : wire) b = static_cast<std::byte>(rng() & 0xFF);
    } else if (mode == 1) {
      // Valid header, noise payload of the declared length.
      const std::uint32_t len = static_cast<std::uint32_t>(rng() % 128);
      wire.resize(net::kFrameHeaderSize + len);
      const std::uint32_t magic = net::kFrameMagic;
      const std::uint16_t type = static_cast<std::uint16_t>(rng() % 16);
      const std::uint16_t flags = 0;
      std::memcpy(wire.data(), &magic, 4);
      std::memcpy(wire.data() + 4, &type, 2);
      std::memcpy(wire.data() + 6, &flags, 2);
      std::memcpy(wire.data() + 8, &len, 4);
      for (std::size_t i = net::kFrameHeaderSize; i < wire.size(); ++i) {
        wire[i] = static_cast<std::byte>(rng() & 0xFF);
      }
    } else {
      // Valid stats-reply frame with one random bit flipped, sometimes
      // truncated as well.
      const std::uint32_t magic = net::kFrameMagic;
      const std::uint16_t type =
          static_cast<std::uint16_t>(server::MsgType::kStatsReply);
      const std::uint16_t flags = 0;
      const std::uint32_t len = static_cast<std::uint32_t>(stats_payload.size());
      wire.resize(net::kFrameHeaderSize + stats_payload.size());
      std::memcpy(wire.data(), &magic, 4);
      std::memcpy(wire.data() + 4, &type, 2);
      std::memcpy(wire.data() + 6, &flags, 2);
      std::memcpy(wire.data() + 8, &len, 4);
      std::memcpy(wire.data() + net::kFrameHeaderSize, stats_payload.data(),
                  stats_payload.size());
      const std::size_t bit = rng() % (wire.size() * 8);
      wire[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      if (rng() % 4 == 0) wire.resize(rng() % (wire.size() + 1));
    }

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    net::Socket writer(fds[0]);
    net::Socket reader(fds[1]);
    if (!wire.empty()) {
      std::string werr;
      ASSERT_EQ(writer.send_exact(wire.data(), wire.size(), Deadline::never(),
                                  &werr),
                IoStatus::kOk)
          << werr;
    }
    writer.close();  // every stream terminates; a hang would time the test out

    net::Frame frame;
    std::string rerr;
    const auto s = net::read_frame(
        reader, &frame, Deadline::after(Duration::from_seconds(5.0)), &rerr);
    switch (s) {
      case IoStatus::kOk: {
        ++ok_frames;
        // A structurally valid frame with adversarial payload must decode
        // to nullopt or to a value — never crash. Run every codec whose
        // type could plausibly match.
        (void)server::decode_stats_reply(frame.payload);
        (void)server::decode_launch(frame.payload);
        (void)server::decode_completion(frame.payload);
        (void)server::decode_hello(frame.payload);
        (void)server::decode_hello_ok(frame.payload);
        (void)server::decode_flush_done(frame.payload);
        (void)server::decode_error(frame.payload);
        break;
      }
      case IoStatus::kEof:
        ++eof_frames;
        break;
      case IoStatus::kError:
        ++error_frames;
        break;
      case IoStatus::kTimeout:
        FAIL() << "parser stalled on adversarial input at iter " << iter;
      case IoStatus::kTransient:
        FAIL() << "read_frame reported kTransient (accept-only status)";
    }
  }
  // All three outcomes must actually occur, or the generator is broken.
  EXPECT_GT(ok_frames, 0);
  EXPECT_GT(error_frames, 0);
  EXPECT_GT(eof_frames, 0);
}

// Codec-level fuzz without the socket: decoders on raw noise.
TEST(FuzzTest, CodecsRejectNoiseWithoutCrashing) {
  std::mt19937_64 rng(0xC0DEC);
  for (int iter = 0; iter < 10000; ++iter) {
    std::vector<std::byte> noise(rng() % 256);
    for (auto& b : noise) b = static_cast<std::byte>(rng() & 0xFF);
    (void)server::decode_stats_reply(noise);
    (void)server::decode_launch(noise);
    (void)server::decode_completion(noise);
    (void)server::decode_hello_ok(noise);
  }
}

// ---- client fail-fast demux (satellite: no waiter may hang) ----

// A scripted server: accepts one client, completes the handshake, then runs
// `behavior` on the connected socket (typically: read a request and die).
class ScriptedServer {
 public:
  using Behavior = std::function<void(net::Socket&)>;

  explicit ScriptedServer(const std::string& path, Behavior behavior) {
    ::unlink(path.c_str());
    std::string err;
    listener_ = net::Listener::bind_unix(path, 4, &err);
    EXPECT_TRUE(listener_.has_value()) << err;
    if (!listener_.has_value()) return;
    thread_ = std::thread([this, behavior = std::move(behavior)] {
      IoStatus status;
      std::string aerr;
      auto sock = listener_->accept(
          Deadline::after(Duration::from_seconds(10.0)), &status, &aerr);
      if (!sock.has_value()) return;
      net::Frame hello;
      std::string herr;
      if (net::read_frame(*sock, &hello,
                          Deadline::after(Duration::from_seconds(10.0)),
                          &herr) != IoStatus::kOk) {
        return;
      }
      server::HelloOkMsg ok;
      ok.inflight_limit = 64;
      (void)net::write_frame(
          *sock, static_cast<std::uint16_t>(server::MsgType::kHelloOk),
          server::encode_hello_ok(ok), Deadline::never(), &herr);
      behavior(*sock);
    });
  }

  ~ScriptedServer() {
    if (thread_.joinable()) thread_.join();
    if (listener_.has_value()) listener_->close();
  }

 private:
  std::optional<net::Listener> listener_;
  std::thread thread_;
};

std::string scripted_path(const std::string& tag) {
  return ::testing::TempDir() + "ewcd_fault_" + tag + ".sock";
}

/// A scripted server that swallows one request, then drops the connection
/// unanswered.
ScriptedServer::Behavior swallow_one_request_then_close() {
  return [](net::Socket& sock) {
    net::Frame req;
    std::string err;
    (void)net::read_frame(sock, &req,
                          Deadline::after(Duration::from_seconds(10.0)), &err);
    sock.shutdown_rw();
  };
}

// Regression: a token-RPC waiter (flush, stats, migrate_export,
// migrate_import) whose connection dies must be *failed*, not left to ride
// out its full timeout.
TEST(ClientDemuxTest, PendingStatsFailsFastWhenServerCloses) {
  using Rpc = std::function<bool(server::ClientConnection&, Duration)>;
  const std::vector<std::pair<std::string, Rpc>> rpcs = {
      {"flush",
       [](server::ClientConnection& c, Duration t) { return c.flush(t); }},
      {"stats",
       [](server::ClientConnection& c, Duration t) {
         server::StatsMsg request;
         request.include_series = true;
         request.include_prometheus = true;
         return c.stats(request, t).has_value();
       }},
      {"export",
       [](server::ClientConnection& c, Duration t) {
         return c.migrate_export(42, /*commit=*/false, t).has_value();
       }},
      {"import",
       [](server::ClientConnection& c, Duration t) {
         server::SessionSnapshot snapshot;
         snapshot.session = 42;
         return c.migrate_import(snapshot, t).has_value();
       }},
  };
  for (const auto& [name, rpc] : rpcs) {
    SCOPED_TRACE(name);
    const auto path = scripted_path("die_" + name);
    ScriptedServer server(path, swallow_one_request_then_close());

    std::string err;
    auto conn = server::ClientConnection::connect(
        path, "demux-test", Duration::from_seconds(5.0), &err);
    ASSERT_NE(conn, nullptr) << err;

    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(rpc(*conn, Duration::from_seconds(60.0)));
    const auto elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    EXPECT_LT(elapsed, 10.0) << name << " waiter rode out its timeout";
    // The connection is dead now; later calls fail immediately, not after
    // a timeout (dead_ is checked under the same lock fail_all holds).
    const auto t1 = std::chrono::steady_clock::now();
    EXPECT_FALSE(rpc(*conn, Duration::from_seconds(60.0)));
    EXPECT_FALSE(conn->stats(false, Duration::from_seconds(60.0)).has_value());
    EXPECT_FALSE(conn->flush(Duration::from_seconds(60.0)));
    const auto elapsed2 = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t1)
                              .count();
    EXPECT_LT(elapsed2, 5.0);
    EXPECT_FALSE(conn->alive());
  }
}

// A reply is handed only to the call that asked for it: one under a
// foreign token, and one of another reply type under the right token, are
// both dropped, and the connection stays up for the real answer.
TEST(ClientDemuxTest, StrayTokenReplyIsDroppedAndTheOwnReplyDelivered) {
  const auto path = scripted_path("stray");
  ScriptedServer server(path, [](net::Socket& sock) {
    const auto deadline = Deadline::after(Duration::from_seconds(10.0));
    net::Frame req;
    std::string err;
    if (net::read_frame(sock, &req, deadline, &err) != IoStatus::kOk) return;
    const auto stats = server::decode_stats(req.payload);
    if (!stats.has_value()) return;
    const auto reply = [&](std::uint64_t token, const char* marker) {
      server::StatsReplyMsg m;
      m.token = token;
      m.counters[marker] = 1.0;
      (void)net::write_frame(
          sock, static_cast<std::uint16_t>(server::MsgType::kStatsReply),
          server::encode_stats_reply(m), deadline, &err);
    };
    reply(stats->token + 1000, "foreign");
    (void)net::write_frame(
        sock, static_cast<std::uint16_t>(server::MsgType::kFlushDone),
        server::encode_flush_done({stats->token, true}), deadline, &err);
    reply(stats->token, "own");
    // Hold the connection until the client hangs up.
    (void)net::read_frame(sock, &req, deadline, &err);
  });

  std::string err;
  auto conn = server::ClientConnection::connect(
      path, "stray-test", Duration::from_seconds(5.0), &err);
  ASSERT_NE(conn, nullptr) << err;
  const auto reply = conn->stats(false, Duration::from_seconds(10.0));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->counters.count("own"), 1u);
  EXPECT_EQ(reply->counters.count("foreign"), 0u);
  EXPECT_TRUE(conn->alive());
}

// A token reply cut off inside its u64 token does not decode: the reader
// takes the fail path, so the waiting call fails fast and the connection
// is marked dead.
TEST(ClientDemuxTest, ReplyCutOffBeforeItsTokenEndsFailsTheConnection) {
  const auto path = scripted_path("shorttoken");
  ScriptedServer server(path, [](net::Socket& sock) {
    const auto deadline = Deadline::after(Duration::from_seconds(10.0));
    net::Frame req;
    std::string err;
    if (net::read_frame(sock, &req, deadline, &err) != IoStatus::kOk) return;
    // The first five bytes of the request's own token.
    const std::vector<std::byte> cut(req.payload.begin(),
                                     req.payload.begin() + 5);
    (void)net::write_frame(
        sock, static_cast<std::uint16_t>(server::MsgType::kStatsReply), cut,
        deadline, &err);
    (void)net::read_frame(sock, &req, deadline, &err);
  });

  std::string err;
  auto conn = server::ClientConnection::connect(
      path, "shorttoken-test", Duration::from_seconds(5.0), &err);
  ASSERT_NE(conn, nullptr) << err;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(conn->stats(false, Duration::from_seconds(60.0)).has_value());
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            10.0);
  EXPECT_FALSE(conn->alive());
}

TEST(ClientDemuxTest, PendingLaunchFailsFastOnTornReply) {
  const auto path = scripted_path("torn");
  ScriptedServer server(path, [](net::Socket& sock) {
    net::Frame req;
    std::string err;
    (void)net::read_frame(sock, &req,
                          Deadline::after(Duration::from_seconds(10.0)), &err);
    // Half a frame header, then close: the client reader must treat the
    // stream as poisoned and fail every pending waiter.
    const std::uint32_t magic = net::kFrameMagic;
    (void)sock.send_exact(&magic, 3, Deadline::never(), &err);
    sock.shutdown_rw();
  });

  std::string err;
  auto conn = server::ClientConnection::connect(
      path, "torn-test", Duration::from_seconds(5.0), &err);
  ASSERT_NE(conn, nullptr) << err;

  consolidate::LaunchRequest req;
  req.owner = "torn-test";
  req.desc = workloads::encryption_12k().gpu;
  const auto t0 = std::chrono::steady_clock::now();
  const auto reply = conn->launch(req, Duration::from_seconds(60.0));
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_FALSE(reply.ok);
  EXPECT_FALSE(reply.error.empty());
  EXPECT_LT(elapsed, 10.0);
}

// ---- fleet fault sites (PR 7) ----

// The two router-era sites must parse and arm like any other site.
TEST(InjectorTest, FleetSitesParseAndArm) {
  auto& inj = fault::Injector::instance();
  std::string err;
  ASSERT_TRUE(inj.arm("net.tcp_connect=fail:times=2", 1, &err)) << err;
  inj.disarm();
  ASSERT_TRUE(inj.arm("router.forward=drop:times=1", 1, &err)) << err;
  inj.disarm();
  ASSERT_TRUE(inj.arm("router.forward=stall:dur=0.01", 1, &err)) << err;
  inj.disarm();
}

// net.tcp_connect=fail refuses the dial attempt up front (before any
// resolution or socket work); once the rule is exhausted the same endpoint
// connects fine.
TEST(TcpConnectFaultTest, InjectedRefusalFailsOneDialThenRecovers) {
  std::string error;
  auto listener = net::Listener::bind_tcp("127.0.0.1", 0, 8, &error);
  ASSERT_TRUE(listener.has_value()) << error;

  ArmGuard guard("net.tcp_connect=fail:times=1");
  auto refused = net::connect_tcp(
      "127.0.0.1", listener->port(),
      Deadline::after(Duration::from_seconds(2.0)), &error);
  EXPECT_FALSE(refused.has_value());
  EXPECT_NE(error.find("injected"), std::string::npos) << error;
  EXPECT_EQ(fault::Injector::instance().fired("net.tcp_connect"), 1u);

  auto ok = net::connect_tcp("127.0.0.1", listener->port(),
                             Deadline::after(Duration::from_seconds(5.0)),
                             &error);
  EXPECT_TRUE(ok.has_value()) << error;
  // UNIX dials never consult the TCP site.
  EXPECT_EQ(fault::Injector::instance().fired("net.tcp_connect"), 1u);
}

// ---- reconnect + replay + breaker against a real daemon ----

// Shared fixture: engine + the pinned default-node power model (as in
// consolidate_test).
class FaultDaemonTest : public ::testing::Test {
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

  struct Daemon {
    Daemon(gpusim::FluidEngine& engine, const power::GpuPowerModel& model,
           const std::string& path, int threshold,
           Duration replay_grace = Duration::from_seconds(120.0),
           int max_clients = 64, int inflight_limit = 64) {
      consolidate::BackendOptions options;
      options.batch_threshold = threshold;
      backend = std::make_unique<consolidate::Backend>(
          engine, model, consolidate::TemplateRegistry::paper_defaults(),
          options);
      backend->set_cpu_profile("aes_encrypt",
                               workloads::encryption_12k().cpu);
      ::unlink(path.c_str());
      server::ServerOptions sopt;
      sopt.socket_path = path;
      sopt.replay_grace = replay_grace;
      sopt.max_clients = max_clients;
      sopt.inflight_limit = inflight_limit;
      server = std::make_unique<server::Server>(*backend, sopt);
      std::string error;
      started = server->start(&error);
      EXPECT_TRUE(started) << error;
    }
    ~Daemon() {
      if (server && server->running()) server->stop();
    }
    std::unique_ptr<consolidate::Backend> backend;
    std::unique_ptr<server::Server> server;
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
gpusim::FluidEngine* FaultDaemonTest::engine_ = nullptr;
power::GpuPowerModel* FaultDaemonTest::model_ = nullptr;

TEST_F(FaultDaemonTest, ReconnectReplaysInFlightLaunches) {
  const auto path = scripted_path("replay");
  Daemon daemon(*engine_, *model_, path, /*threshold=*/2);
  ASSERT_TRUE(daemon.started);

  server::ClientOptions copts;
  copts.auto_reconnect = true;
  copts.retry.initial_backoff = Duration::from_millis(10.0);
  copts.retry.max_backoff = Duration::from_millis(50.0);
  std::string err;
  auto conn = server::ClientConnection::connect(
      path, "replay-client", Duration::from_seconds(5.0), copts, &err);
  ASSERT_NE(conn, nullptr) << err;

  // First launch pends in the backend batch (threshold 2).
  consolidate::CompletionReply first;
  std::thread launcher([&] {
    first = conn->launch(aes_launch("replay-a"), Duration::from_seconds(60.0));
  });
  // Give the launch time to reach the daemon, then sever the transport.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  conn->inject_disconnect();

  // Second launch rides the recovered connection and fills the batch. The
  // first launch's replay must not re-execute it (server-side dedup), so
  // exactly one batch of two runs and both waiters complete.
  const auto second =
      conn->launch(aes_launch("replay-b"), Duration::from_seconds(60.0));
  launcher.join();

  EXPECT_TRUE(first.ok) << first.error;
  EXPECT_TRUE(second.ok) << second.error;
  EXPECT_GE(conn->reconnects(), 1u);
  EXPECT_GE(conn->replayed_launches(), 1u);

  const auto reports = daemon.backend->reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].num_instances, 2);
}

// A fresh client process reusing its predecessor's deterministic owner
// names and request-id sequence must never be answered from the old
// session's completed-reply log — each ClientConnection hellos with a
// fresh session nonce, so the daemon re-executes.
TEST_F(FaultDaemonTest, FreshSessionIsNeverServedStaleCompletions) {
  const auto path = scripted_path("fresh-session");
  Daemon daemon(*engine_, *model_, path, /*threshold=*/1);
  ASSERT_TRUE(daemon.started);

  server::ClientOptions copts;
  copts.auto_reconnect = true;  // negotiate replay so dedup state is recorded
  std::string err;
  auto conn1 = server::ClientConnection::connect(
      path, "twice-client", Duration::from_seconds(5.0), copts, &err);
  ASSERT_NE(conn1, nullptr) << err;
  const auto r1 =
      conn1->launch(aes_launch("twice-a"), Duration::from_seconds(60.0));
  EXPECT_TRUE(r1.ok) << r1.error;
  const auto nonce1 = conn1->session();
  conn1.reset();

  // Same owner, same request id (a fresh connection restarts at 1) — but a
  // new nonce, so this must execute, not replay the cached reply.
  auto conn2 = server::ClientConnection::connect(
      path, "twice-client", Duration::from_seconds(5.0), copts, &err);
  ASSERT_NE(conn2, nullptr) << err;
  EXPECT_NE(conn2->session(), nonce1);
  const auto r2 =
      conn2->launch(aes_launch("twice-a"), Duration::from_seconds(60.0));
  EXPECT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(daemon.backend->reports().size(), 2u);
}

// A client that pins its session nonce resumes its predecessor's dedup
// state within replay_grace (idempotent replay), and re-executes once the
// idle session has been evicted past the window.
TEST_F(FaultDaemonTest, ReplayGraceWindowBoundsSessionDedupLifetime) {
  const auto path = scripted_path("grace");
  Daemon daemon(*engine_, *model_, path, /*threshold=*/1,
                /*replay_grace=*/Duration::from_seconds(1.0));
  ASSERT_TRUE(daemon.started);

  server::ClientOptions copts;
  copts.auto_reconnect = true;
  copts.session_nonce = 0x1234;  // deliberate resume across connections
  std::string err;
  auto conn1 = server::ClientConnection::connect(
      path, "grace-client", Duration::from_seconds(5.0), copts, &err);
  ASSERT_NE(conn1, nullptr) << err;
  const auto r1 =
      conn1->launch(aes_launch("grace-a"), Duration::from_seconds(60.0));
  EXPECT_TRUE(r1.ok) << r1.error;
  conn1.reset();

  // Within the grace window: same nonce + same id is a dedup hit, served
  // from the session's completed log without re-executing.
  auto conn2 = server::ClientConnection::connect(
      path, "grace-client", Duration::from_seconds(5.0), copts, &err);
  ASSERT_NE(conn2, nullptr) << err;
  const auto r2 =
      conn2->launch(aes_launch("grace-a"), Duration::from_seconds(60.0));
  EXPECT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(daemon.backend->reports().size(), 1u);
  conn2.reset();

  // Past the window the idle session is evicted (swept on the next hello),
  // so the same nonce + id executes afresh.
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  auto conn3 = server::ClientConnection::connect(
      path, "grace-client", Duration::from_seconds(5.0), copts, &err);
  ASSERT_NE(conn3, nullptr) << err;
  const auto r3 =
      conn3->launch(aes_launch("grace-a"), Duration::from_seconds(60.0));
  EXPECT_TRUE(r3.ok) << r3.error;
  EXPECT_EQ(daemon.backend->reports().size(), 2u);
}

TEST_F(FaultDaemonTest, ReconnectSurvivesScriptedConnectRefusals) {
  const auto path = scripted_path("refuse");
  Daemon daemon(*engine_, *model_, path, /*threshold=*/1);
  ASSERT_TRUE(daemon.started);

  // The first two dials are refused by script; the third succeeds.
  ArmGuard guard("net.connect=fail:times=2");
  server::ClientOptions copts;
  copts.auto_reconnect = true;
  copts.retry.initial_backoff = Duration::from_millis(10.0);
  copts.retry.max_backoff = Duration::from_millis(50.0);
  std::string err;
  auto conn = server::ClientConnection::connect(
      path, "refused-client", Duration::from_seconds(5.0), copts, &err);
  ASSERT_NE(conn, nullptr) << err;
  EXPECT_EQ(fault::Injector::instance().fired("net.connect"), 2u);

  const auto reply =
      conn->launch(aes_launch("refused-a"), Duration::from_seconds(60.0));
  EXPECT_TRUE(reply.ok) << reply.error;
}

TEST_F(FaultDaemonTest, BreakerOpensAfterConsecutiveTransportFailures) {
  const auto path = scripted_path("breaker");
  server::ClientOptions copts;
  copts.auto_reconnect = true;
  copts.retry.max_attempts = 2;
  copts.retry.initial_backoff = Duration::from_millis(5.0);
  copts.retry.max_backoff = Duration::from_millis(10.0);
  copts.breaker_threshold = 2;
  copts.breaker_cooldown = Duration::from_seconds(300.0);  // stays open

  std::unique_ptr<server::ClientConnection> conn;
  {
    Daemon daemon(*engine_, *model_, path, /*threshold=*/1);
    ASSERT_TRUE(daemon.started);
    std::string err;
    conn = server::ClientConnection::connect(
        path, "breaker-client", Duration::from_seconds(5.0), copts, &err);
    ASSERT_NE(conn, nullptr) << err;
    // Daemon goes away here (scope exit stops it, socket unlinks).
  }

  // The reader notices, recovery fails (2 dials, nothing listening), the
  // connection dies — and the breaker has seen >= 2 consecutive failures.
  const auto first =
      conn->launch(aes_launch("breaker-a"), Duration::from_seconds(30.0));
  EXPECT_FALSE(first.ok);

  // Breaker is open with a 300s cooldown: this must fail instantly with the
  // breaker error, without touching the socket.
  const auto t0 = std::chrono::steady_clock::now();
  const auto second =
      conn->launch(aes_launch("breaker-b"), Duration::from_seconds(30.0));
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_FALSE(second.ok);
  EXPECT_EQ(second.error, "circuit breaker open");
  EXPECT_LT(elapsed, 1.0);
  EXPECT_FALSE(conn->stats(false, Duration::from_seconds(30.0)).has_value());
}

// ---- overload bugs flushed out by the traffic harness ----

// fd exhaustion at the accept site (EMFILE/ENFILE/ENOBUFS) is transient —
// fds come back when connections close. Before the fix Listener::accept
// reported it as IoStatus::kError and the accept loop just logged and spun;
// under real exhaustion that is a hot loop, and the daemon never
// distinguished "retry later" from "socket is broken". Now accept reports
// kTransient and the loop backs off (capped, stop-aware), counting each
// wait in server.accept_backoff.
TEST_F(FaultDaemonTest, AcceptFdExhaustionBacksOffAndRecovers) {
  const auto path = scripted_path("accept-fd");
  Daemon daemon(*engine_, *model_, path, /*threshold=*/1);
  ASSERT_TRUE(daemon.started);
  const obs::Counter backoffs =
      obs::Registry::instance().counter("server.accept_backoff");
  const double backoffs_before = backoffs.value();

  // The first three accept readiness events mint no fd (simulated EMFILE);
  // the pending connection stays queued, so each backoff ends in another
  // ready poll until the fourth attempt accepts for real.
  ArmGuard guard("net.accept=fail:times=3");
  std::string err;
  auto conn = server::ClientConnection::connect(
      path, "fd-client", Duration::from_seconds(10.0), &err);
  ASSERT_NE(conn, nullptr) << err;
  EXPECT_EQ(fault::Injector::instance().fired("net.accept"), 3u);
  EXPECT_GE(backoffs.value() - backoffs_before, 3.0);

  const auto reply =
      conn->launch(aes_launch("fd-a"), Duration::from_seconds(60.0));
  EXPECT_TRUE(reply.ok) << reply.error;
}

// A "server full" hello refusal during reconnect recovery is admission
// backpressure from a live daemon, not a transport failure. Before the fix
// recover() counted each refused redial toward the breaker: a session that
// lost its slot during a disconnect (another client grabbed it) would trip
// the breaker after breaker_threshold refusals and strand every subsequent
// launch behind "circuit breaker open" even after the slot freed up.
TEST_F(FaultDaemonTest, ServerFullRecoveryRefusalsDoNotTripBreaker) {
  const auto path = scripted_path("full-recover");
  Daemon daemon(*engine_, *model_, path, /*threshold=*/1,
                Duration::from_seconds(120.0), /*max_clients=*/1);
  ASSERT_TRUE(daemon.started);
  const obs::Counter trips =
      obs::Registry::instance().counter("client.breaker_trips");
  const double trips_before = trips.value();

  server::ClientOptions vopts;
  vopts.auto_reconnect = true;
  vopts.retry.max_attempts = 60;
  vopts.retry.initial_backoff = Duration::from_millis(150.0);
  vopts.retry.max_backoff = Duration::from_millis(150.0);
  vopts.breaker_threshold = 3;
  vopts.breaker_cooldown = Duration::from_seconds(300.0);  // a trip is fatal
  std::string err;
  auto victim = server::ClientConnection::connect(
      path, "victim", Duration::from_seconds(5.0), vopts, &err);
  ASSERT_NE(victim, nullptr) << err;

  // Sever the victim's transport; while it backs off before redialing, a
  // rival takes the daemon's only connection slot (retry until the daemon
  // has reaped the victim's old connection).
  victim->inject_disconnect();
  std::unique_ptr<server::ClientConnection> rival;
  for (int i = 0; i < 40 && rival == nullptr; ++i) {
    rival = server::ClientConnection::connect(path, "rival",
                                              Duration::from_seconds(2.0),
                                              &err);
    if (rival == nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  ASSERT_NE(rival, nullptr) << err;

  // ~6 redials at 150ms all handshake successfully at the socket level and
  // are answered "server full" — more consecutive refusals than the
  // breaker threshold of 3.
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  rival.reset();  // slot freed; the victim's next redial succeeds

  const auto reply =
      victim->launch(aes_launch("victim-a"), Duration::from_seconds(60.0));
  EXPECT_TRUE(reply.ok) << reply.error;
  EXPECT_GE(victim->reconnects(), 1u);
  EXPECT_EQ(trips.value(), trips_before);
}

// Same principle at the launch level: ok=false "in-flight limit" rejections
// are the daemon shedding load, and a flood of them past the admission
// bound must leave the breaker closed and the session usable.
TEST_F(FaultDaemonTest, AdmissionRejectionFloodDoesNotTripBreaker) {
  const auto path = scripted_path("admission-flood");
  Daemon daemon(*engine_, *model_, path, /*threshold=*/1,
                Duration::from_seconds(120.0), /*max_clients=*/64,
                /*inflight_limit=*/2);
  ASSERT_TRUE(daemon.started);
  const obs::Counter trips =
      obs::Registry::instance().counter("client.breaker_trips");
  const double trips_before = trips.value();

  server::ClientOptions copts;
  copts.breaker_threshold = 3;
  copts.breaker_cooldown = Duration::from_seconds(300.0);
  std::string err;
  auto conn = server::ClientConnection::connect(
      path, "flood", Duration::from_seconds(5.0), copts, &err);
  ASSERT_NE(conn, nullptr) << err;

  constexpr int kFlood = 40;
  std::atomic<int> ok{0}, rejected{0}, breaker_failures{0}, other{0};
  std::mutex mu;
  std::condition_variable cv;
  int outstanding = kFlood;
  for (int i = 0; i < kFlood; ++i) {
    conn->launch_async(
        aes_launch("flood"), [&](const consolidate::CompletionReply& r) {
          if (r.ok) {
            ok.fetch_add(1);
          } else if (r.error.find("in-flight limit") != std::string::npos) {
            rejected.fetch_add(1);
          } else if (r.error == "circuit breaker open") {
            breaker_failures.fetch_add(1);
          } else {
            other.fetch_add(1);
          }
          std::lock_guard lock(mu);
          if (--outstanding == 0) cv.notify_one();
        });
  }
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                            [&] { return outstanding == 0; }));
  }
  // The flood outpaces the 2-deep admission window, so most launches bounce
  // — and none of those bounces may open the breaker.
  EXPECT_GT(rejected.load(), 0);
  EXPECT_GT(ok.load(), 0);
  EXPECT_EQ(breaker_failures.load(), 0);
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(trips.value(), trips_before);

  const auto reply =
      conn->launch(aes_launch("flood"), Duration::from_seconds(60.0));
  EXPECT_TRUE(reply.ok) << reply.error;
}

// ---- degraded-mode consolidation ----

TEST_F(FaultDaemonTest, DecisionFaultDegradesToIndividualExecution) {
  ArmGuard guard("decision.decide=fail:times=1");
  consolidate::BackendOptions options;
  options.batch_threshold = 2;
  consolidate::Backend backend(*engine_, *model_,
                               consolidate::TemplateRegistry::paper_defaults(),
                               options);
  backend.set_cpu_profile("aes_encrypt", workloads::encryption_12k().cpu);

  auto reply_ch = std::make_shared<consolidate::ReplyChannel>();
  for (int i = 0; i < 2; ++i) {
    auto req = aes_launch("degraded" + std::to_string(i));
    req.request_id = static_cast<std::uint64_t>(i + 1);
    req.reply = reply_ch;
    backend.channel().send(std::move(req));
  }
  for (int i = 0; i < 2; ++i) {
    const auto reply = reply_ch->receive();
    ASSERT_TRUE(reply.has_value());
    // Degraded, not failed: every request still completes successfully.
    EXPECT_TRUE(reply->ok) << reply->error;
    EXPECT_EQ(reply->where,
              consolidate::CompletionReply::Where::kIndividualGpu);
  }

  const auto reports = backend.reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].degraded);
  EXPECT_EQ(reports[0].executed, consolidate::Alternative::kIndividualGpu);
  EXPECT_NE(reports[0].degraded_reason.find("injected"), std::string::npos)
      << reports[0].degraded_reason;
  EXPECT_EQ(fault::Injector::instance().fired("decision.decide"), 1u);
  backend.shutdown();
}

TEST_F(FaultDaemonTest, DecisionDeadlineOverrunDegrades) {
  ArmGuard guard("decision.decide=stall:dur=0.2:times=1");
  consolidate::BackendOptions options;
  options.batch_threshold = 1;
  options.decision_deadline = Duration::from_millis(20.0);
  consolidate::Backend backend(*engine_, *model_,
                               consolidate::TemplateRegistry::paper_defaults(),
                               options);
  backend.set_cpu_profile("aes_encrypt", workloads::encryption_12k().cpu);

  auto reply_ch = std::make_shared<consolidate::ReplyChannel>();
  auto req = aes_launch("deadline0");
  req.request_id = 1;
  req.reply = reply_ch;
  const auto t0 = std::chrono::steady_clock::now();
  backend.channel().send(std::move(req));
  const auto reply = reply_ch->receive();
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->ok) << reply->error;
  // The wait is bounded by the deadline, not the 0.2s stall: the reply must
  // arrive while the stalled decide call is still sleeping.
  EXPECT_LT(elapsed, 0.15);

  const auto reports = backend.reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].degraded);
  EXPECT_NE(reports[0].degraded_reason.find("deadline"), std::string::npos)
      << reports[0].degraded_reason;
  backend.shutdown();
}

TEST_F(FaultDaemonTest, BackendBatchFaultFailsEveryPendingReply) {
  ArmGuard guard("backend.batch=fail:times=1");
  consolidate::BackendOptions options;
  options.batch_threshold = 2;
  consolidate::Backend backend(*engine_, *model_,
                               consolidate::TemplateRegistry::paper_defaults(),
                               options);
  backend.set_cpu_profile("aes_encrypt", workloads::encryption_12k().cpu);

  auto reply_ch = std::make_shared<consolidate::ReplyChannel>();
  for (int i = 0; i < 2; ++i) {
    auto req = aes_launch("batchfail" + std::to_string(i));
    req.request_id = static_cast<std::uint64_t>(i + 1);
    req.reply = reply_ch;
    backend.channel().send(std::move(req));
  }
  for (int i = 0; i < 2; ++i) {
    const auto reply = reply_ch->receive();
    ASSERT_TRUE(reply.has_value());
    EXPECT_FALSE(reply->ok);
    EXPECT_NE(reply->error.find("injected"), std::string::npos)
        << reply->error;
  }
  backend.shutdown();
}

}  // namespace
}  // namespace ewc
