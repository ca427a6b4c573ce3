// Tests for the epoll event core under ewcd and the fleet router.
//
// The headline test is the scale contract the reactor was built for: one
// epoll thread plus a bounded pump pool holding 1000 concurrent sessions —
// a load the old two-threads-per-connection server could not carry without
// ~2000 thread stacks. The smaller tests pin the per-connection ordering
// and lifecycle guarantees the server and router handlers lean on.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/registry.hpp"
#include "server/reactor.hpp"

namespace ewc {
namespace {

using common::Duration;
using net::Deadline;
using net::Frame;
using net::IoStatus;
using net::Socket;
using server::CloseReason;
using server::Reactor;

std::string reactor_path(const std::string& tag) {
  return ::testing::TempDir() + "ewc_reactor_" + tag + ".sock";
}

/// 1000 sessions * (1 client fd + 1 reactor fd) + epoll/eventfd overhead
/// needs headroom over the common 1024 soft limit.
bool raise_fd_limit(rlim_t want) {
  struct rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return false;
  if (rl.rlim_cur >= want) return true;
  if (rl.rlim_max != RLIM_INFINITY && rl.rlim_max < want) return false;
  rl.rlim_cur = want;
  return ::setrlimit(RLIMIT_NOFILE, &rl) == 0;
}

std::vector<std::byte> tagged_payload(std::uint32_t session,
                                      std::uint32_t seq) {
  std::vector<std::byte> p(8);
  std::memcpy(p.data(), &session, 4);
  std::memcpy(p.data() + 4, &seq, 4);
  return p;
}

// An echo reactor: every inbound frame is sent straight back on the same
// connection. on_frame runs on the pump pool, so echoes from different
// connections interleave freely while each connection stays ordered.
struct EchoHarness {
  Reactor::Options options;
  std::atomic<int> opened{0};
  std::atomic<int> closed{0};
  std::atomic<int> frames{0};
  std::unique_ptr<Reactor> reactor;

  bool start(const std::string& path, std::string* error) {
    Reactor::Handler handler;
    handler.on_open = [this](const Reactor::ConnPtr&) { opened.fetch_add(1); };
    handler.on_frame = [this](const Reactor::ConnPtr& conn, Frame frame) {
      frames.fetch_add(1);
      conn->send(frame.type, frame.payload);
    };
    handler.on_close = [this](const Reactor::ConnPtr&, CloseReason,
                              const std::string&) { closed.fetch_add(1); };
    reactor = std::make_unique<Reactor>(options, std::move(handler));
    ::unlink(path.c_str());
    auto listener = net::Listener::bind_unix(path, 1024, error);
    if (!listener) return false;
    return reactor->start(std::move(*listener), error);
  }

  void stop() {
    if (reactor) {
      reactor->notify_stop();
      reactor->join();
    }
  }
};

// The scale + correctness contract in one test: 1000 concurrent sessions,
// every one exchanging several frames, with per-session payload tagging so
// any cross-connection mixup, reorder, loss, or duplication is caught.
// Client I/O is spread over a small thread pool — the point is that the
// *server* side holds 1000 sockets on a handful of threads.
TEST(ReactorStressTest, OneThousandConcurrentEchoSessions) {
  constexpr int kSessions = 1000;
  constexpr std::uint32_t kFramesPerSession = 3;
  if (!raise_fd_limit(4096)) {
    GTEST_SKIP() << "cannot raise RLIMIT_NOFILE to 4096";
  }

  const auto path = reactor_path("stress");
  EchoHarness harness;
  harness.options.workers = 8;
  std::string error;
  ASSERT_TRUE(harness.start(path, &error)) << error;

  // Phase 1: open every session before any traffic, so the reactor really
  // holds kSessions live fds at once.
  std::vector<Socket> clients;
  clients.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    auto sock = net::connect_unix(
        path, Deadline::after(Duration::from_seconds(30.0)), &error);
    ASSERT_TRUE(sock.has_value()) << "session " << i << ": " << error;
    clients.push_back(std::move(*sock));
  }

  // Phase 2: drive every session through send/recv round trips from a
  // bounded worker pool, verifying each echo is this session's bytes in
  // this session's order.
  constexpr int kDrivers = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      for (int i = d; i < kSessions; i += kDrivers) {
        for (std::uint32_t seq = 0; seq < kFramesPerSession; ++seq) {
          const auto payload =
              tagged_payload(static_cast<std::uint32_t>(i), seq);
          std::string werr;
          if (net::write_frame(clients[i], 42, payload, Deadline::never(),
                               &werr) != IoStatus::kOk) {
            failures.fetch_add(1);
            return;
          }
          Frame echo;
          std::string rerr;
          if (net::read_frame(clients[i], &echo,
                              Deadline::after(Duration::from_seconds(60.0)),
                              &rerr) != IoStatus::kOk ||
              echo.type != 42 || echo.payload != payload) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(harness.frames.load(), kSessions * kFramesPerSession);
  EXPECT_EQ(harness.opened.load(), kSessions);

  // Phase 3: close every client and wait for exactly one on_close each.
  for (auto& c : clients) c.shutdown_rw();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (harness.closed.load() < kSessions &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(harness.closed.load(), kSessions);
  harness.stop();
  EXPECT_EQ(harness.closed.load(), kSessions) << "close delivered twice";
}

// A frame dribbled in byte-by-byte must still come out as one frame: the
// reactor's inbuf accumulates partial reads across epoll wakeups.
TEST(ReactorTest, ReassemblesFramesFromSingleByteReads) {
  const auto path = reactor_path("dribble");
  EchoHarness harness;
  harness.options.workers = 2;
  std::string error;
  ASSERT_TRUE(harness.start(path, &error)) << error;

  auto sock = net::connect_unix(
      path, Deadline::after(Duration::from_seconds(5.0)), &error);
  ASSERT_TRUE(sock.has_value()) << error;

  // Serialize a frame by hand (same Writer the real framing uses), then
  // send it one byte at a time.
  const auto payload = tagged_payload(7, 9);
  net::Writer w;
  w.u32(net::kFrameMagic);
  w.u16(42);  // type
  w.u16(0);   // flags
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  const auto wire = w.bytes();
  for (std::size_t i = 0; i < wire.size(); ++i) {
    ASSERT_EQ(sock->send_exact(wire.data() + i, 1, Deadline::never(), &error),
              IoStatus::kOk)
        << error;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  Frame echo;
  ASSERT_EQ(net::read_frame(*sock, &echo,
                            Deadline::after(Duration::from_seconds(10.0)),
                            &error),
            IoStatus::kOk)
      << error;
  EXPECT_EQ(echo.type, 42);
  EXPECT_EQ(echo.payload, payload);
  harness.stop();
}

// Garbage where a frame header should be is a protocol error: the reactor
// must close that connection (exactly once) and keep serving others.
TEST(ReactorTest, ProtocolGarbageClosesOnlyTheOffendingConnection) {
  const auto path = reactor_path("garbage");
  EchoHarness harness;
  harness.options.workers = 2;
  std::string error;
  ASSERT_TRUE(harness.start(path, &error)) << error;

  auto good = net::connect_unix(
      path, Deadline::after(Duration::from_seconds(5.0)), &error);
  ASSERT_TRUE(good.has_value()) << error;
  auto bad = net::connect_unix(
      path, Deadline::after(Duration::from_seconds(5.0)), &error);
  ASSERT_TRUE(bad.has_value()) << error;

  const char junk[] = "this is not an EWC1 frame header at all";
  ASSERT_EQ(bad->send_exact(junk, sizeof(junk), Deadline::never(), &error),
            IoStatus::kOk)
      << error;
  Frame f;
  // The offender sees the stream end without a reply frame.
  EXPECT_NE(net::read_frame(*bad, &f,
                            Deadline::after(Duration::from_seconds(10.0)),
                            &error),
            IoStatus::kOk);

  // The well-behaved connection still echoes.
  const auto payload = tagged_payload(1, 1);
  ASSERT_EQ(net::write_frame(*good, 42, payload, Deadline::never(), &error),
            IoStatus::kOk);
  ASSERT_EQ(net::read_frame(*good, &f,
                            Deadline::after(Duration::from_seconds(10.0)),
                            &error),
            IoStatus::kOk)
      << error;
  EXPECT_EQ(f.payload, payload);

  good->shutdown_rw();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (harness.closed.load() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(harness.closed.load(), 2);
  harness.stop();
}

// The router's forwarding pattern: every frame read from one connection
// goes to its peer, corked until the pump turn ends, while some frames in
// the same turn are sent to that peer directly. The peer must see every
// frame in the order it arrived, and the corked ones must share writes.
TEST(ReactorTest, CorkedFramesKeepOrderAroundDirectSendsToTheSamePeer) {
  const auto path = reactor_path("cork");
  constexpr std::uint32_t kFrames = 400;
  std::mutex mu;
  std::vector<Reactor::ConnPtr> opened;  // [0] receives, [1] sends
  Reactor::Options options;
  options.workers = 2;
  options.queued_writes =
      obs::Registry::instance().counter("test.reactor.cork_writes");
  Reactor::Handler handler;
  handler.on_open = [&](const Reactor::ConnPtr& conn) {
    std::lock_guard lock(mu);
    opened.push_back(conn);
  };
  handler.on_frame = [&](const Reactor::ConnPtr&, Frame frame) {
    Reactor::ConnPtr peer;
    {
      std::lock_guard lock(mu);
      peer = opened.front();
    }
    std::uint32_t seq = 0;
    std::memcpy(&seq, frame.payload.data() + 4, 4);
    if (seq % 4 == 3) {
      peer->send(frame.type, frame.payload);
    } else {
      peer->cork(frame.type, frame.payload);
    }
  };
  Reactor reactor(options, std::move(handler));
  std::string error;
  ::unlink(path.c_str());
  auto listener = net::Listener::bind_unix(path, 16, &error);
  ASSERT_TRUE(listener.has_value()) << error;
  ASSERT_TRUE(reactor.start(std::move(*listener), &error)) << error;

  auto receiver = net::connect_unix(
      path, Deadline::after(Duration::from_seconds(5.0)), &error);
  ASSERT_TRUE(receiver.has_value()) << error;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto opened_count = [&] {
    std::lock_guard lock(mu);
    return opened.size();
  };
  while (opened_count() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(opened_count(), 1u);
  auto sender = net::connect_unix(
      path, Deadline::after(Duration::from_seconds(5.0)), &error);
  ASSERT_TRUE(sender.has_value()) << error;

  // One write, so most of it lands in one read and one pump turn.
  std::vector<std::byte> burst;
  for (std::uint32_t seq = 0; seq < kFrames; ++seq) {
    net::append_frame(burst, 42, tagged_payload(9, seq));
  }
  const double writes_before =
      obs::Registry::instance().counter("test.reactor.cork_writes").value();
  ASSERT_EQ(sender->send_exact(burst.data(), burst.size(), Deadline::never(),
                               &error),
            IoStatus::kOk)
      << error;

  net::FrameBuffer rx;
  for (std::uint32_t seq = 0; seq < kFrames; ++seq) {
    Frame f;
    ASSERT_EQ(net::read_frame(*receiver, rx, &f,
                              Deadline::after(Duration::from_seconds(10.0)),
                              &error),
              IoStatus::kOk)
        << "frame " << seq << ": " << error;
    ASSERT_EQ(f.payload, tagged_payload(9, seq)) << "out of order at " << seq;
  }
  const double corked_writes =
      obs::Registry::instance().counter("test.reactor.cork_writes").value() -
      writes_before;
  // Three of every four frames were corked; each direct send first drains
  // what the turn corked so far, in one write.
  EXPECT_GE(corked_writes, 1.0);
  EXPECT_LT(corked_writes, kFrames * 3.0 / 4.0);
  reactor.notify_stop();
  reactor.join();
}

}  // namespace
}  // namespace ewc
