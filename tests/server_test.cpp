// End-to-end tests for the ewcd socket daemon: bit-identity of socket-served
// results against the in-process path, fault isolation, admission control,
// deadlines, and graceful drain. The multi-process cases fork/exec the real
// ewcsim binary (EWCSIM_PATH, injected by CMake).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/ioctl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "consolidate/runner.hpp"
#include "cudart/runtime.hpp"
#include "ewcsim_process.hpp"
#include "fault/injector.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/registry.hpp"
#include "power/power_model.hpp"
#include "server/client.hpp"
#include "server/protocol_wire.hpp"
#include "server/remote_frontend.hpp"
#include "server/server.hpp"
#include "workloads/paper_configs.hpp"

namespace ewc {
namespace {

using common::Duration;
using consolidate::CompletionReply;
using consolidate::LaunchRequest;
using net::Deadline;

std::string f64_bits(double v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

std::string socket_path(const std::string& tag) {
  return ::testing::TempDir() + "ewcd_" + tag + ".sock";
}

// In-process daemon wired exactly like ExperimentRunner::run_dynamic /
// `ewcsim serve`, so socket-served results are comparable bit-for-bit.
struct TestDaemon {
  explicit TestDaemon(const std::vector<consolidate::WorkloadMix>& mix,
                      int threshold, server::ServerOptions sopt) {
    const power::GpuPowerModel model = power::default_device_model();

    consolidate::BackendOptions options;
    options.batch_threshold = threshold;
    std::vector<workloads::InstanceSpec> specs;
    for (const auto& m : mix) specs.push_back(m.spec);
    backend = std::make_unique<consolidate::Backend>(
        engine, model, consolidate::served_mix(specs), options);
    ::unlink(sopt.socket_path.c_str());
    server = std::make_unique<server::Server>(*backend, sopt);
    std::string error;
    started = server->start(&error);
    start_error = error;
  }

  ~TestDaemon() {
    if (server && server->running()) server->stop();
  }

  gpusim::FluidEngine engine;
  std::unique_ptr<consolidate::Backend> backend;
  std::unique_ptr<server::Server> server;
  bool started = false;
  std::string start_error;
};

LaunchRequest make_launch(const workloads::InstanceSpec& spec,
                          const std::string& owner) {
  LaunchRequest req;
  req.owner = owner;
  req.desc = spec.gpu;
  req.api_messages = 1;
  return req;
}

// Raw-socket client that speaks just enough protocol for fault injection.
net::Socket raw_handshake(const std::string& path, const std::string& owner) {
  std::string err;
  auto sock = net::connect_unix(
      path, Deadline::after(Duration::from_seconds(5.0)), &err);
  EXPECT_TRUE(sock.has_value()) << err;
  if (!sock.has_value()) return {};
  EXPECT_EQ(net::write_frame(
                *sock, static_cast<std::uint16_t>(server::MsgType::kHello),
                server::encode_hello({server::kProtocolVersion, owner}),
                Deadline::never(), &err),
            net::IoStatus::kOk);
  net::Frame frame;
  EXPECT_EQ(net::read_frame(*sock, &frame,
                            Deadline::after(Duration::from_seconds(5.0)),
                            &err),
            net::IoStatus::kOk)
      << err;
  EXPECT_EQ(frame.type, static_cast<std::uint16_t>(server::MsgType::kHelloOk));
  return std::move(*sock);
}

// ---- the flagship: 4 client processes vs the in-process path ----

TEST(ServerProcessTest, FourClientProcessesBitIdenticalToInProcess) {
  const std::vector<consolidate::WorkloadMix> mix = {
      {workloads::encryption_12k(), 4},
      {workloads::sorting_6k(), 4},
  };

  // Reference: the in-process dynamic framework run.
  gpusim::FluidEngine engine;
  const power::GpuPowerModel model = power::default_device_model();
  consolidate::ExperimentRunner runner(engine, model);
  std::vector<consolidate::BatchReport> ref_reports;
  std::map<std::string, CompletionReply> ref_completions;
  const auto ref = runner.run_dynamic(mix, &ref_reports, &ref_completions);
  ASSERT_EQ(ref_completions.size(), 8u);

  // Daemon + 4 separate client processes, each owning a slice of the mix.
  const std::string path = socket_path("bitident");
  ::unlink(path.c_str());
  const std::string out_dir = ::testing::TempDir();
  const pid_t server_pid = spawn_ewcsim(
      {"serve", "--socket", path, "--workload", "encryption_12k=4",
       "--workload", "sorting_6k=4"},
      out_dir + "ewcd_bitident_serve.log");

  struct ClientSlice {
    std::string workload;
    int slot_base;
  };
  const std::vector<ClientSlice> slices = {
      {"encryption_12k=2", 0},
      {"encryption_12k=2", 2},
      {"sorting_6k=2", 4},
      {"sorting_6k=2", 6},
  };
  std::vector<pid_t> clients;
  std::vector<std::string> client_logs;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const auto log =
        out_dir + "ewcd_bitident_client" + std::to_string(i) + ".log";
    client_logs.push_back(log);
    clients.push_back(spawn_ewcsim(
        {"client", "--socket", path, "--workload", slices[i].workload,
         "--slot-base", std::to_string(slices[i].slot_base)},
        log));
  }
  for (pid_t pid : clients) EXPECT_EQ(wait_exit_code(pid), 0);

  ::kill(server_pid, SIGTERM);
  EXPECT_EQ(wait_exit_code(server_pid), 0);
  const auto server_out = read_file(out_dir + "ewcd_bitident_serve.log");
  EXPECT_NE(server_out.find("ewcd drained, exiting"), std::string::npos)
      << server_out;

  // Every client reply must match the in-process completion bit for bit.
  std::map<std::string, std::map<std::string, std::string>> replies;
  for (const auto& log : client_logs) {
    for (auto& rec : parse_records(read_file(log), "REPLY")) {
      replies[rec["owner"]] = rec;
    }
  }
  ASSERT_EQ(replies.size(), 8u);
  for (const auto& [owner, ref_reply] : ref_completions) {
    ASSERT_TRUE(replies.count(owner)) << "missing reply for " << owner;
    auto& got = replies[owner];
    EXPECT_EQ(got["ok"], "1") << owner;
    EXPECT_EQ(got["where"],
              std::to_string(static_cast<int>(ref_reply.where)))
        << owner;
    EXPECT_EQ(got["finish"], f64_bits(ref_reply.finish_time.seconds()))
        << owner;
  }

  // The daemon's batch reports must match the in-process ones bit for bit.
  const auto reports = parse_records(server_out, "REPORT");
  ASSERT_EQ(reports.size(), ref_reports.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& got = reports[i];
    const auto& want = ref_reports[i];
    EXPECT_EQ(got.at("n"), std::to_string(want.num_instances));
    EXPECT_EQ(got.at("executed"),
              std::to_string(static_cast<int>(want.executed)));
    EXPECT_EQ(got.at("overhead"), f64_bits(want.overhead.seconds()));
    EXPECT_EQ(got.at("exec"), f64_bits(want.execution_time.seconds()));
    EXPECT_EQ(got.at("total"), f64_bits(want.total_time.seconds()));
    EXPECT_EQ(got.at("energy"), f64_bits(want.energy.joules()));
  }
  const auto totals = parse_records(server_out, "TOTAL");
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals[0].at("time"), f64_bits(ref.time.seconds()));
  EXPECT_EQ(totals[0].at("energy"), f64_bits(ref.energy.joules()));
}

TEST(ServerProcessTest, SigtermDrainFailsOutstandingAndExitsCleanly) {
  const std::string path = socket_path("drain");
  ::unlink(path.c_str());
  const std::string log = ::testing::TempDir() + "ewcd_drain_serve.log";
  // Threshold 5 with only 2 launches coming: they stay pending until SIGTERM.
  const pid_t server_pid = spawn_ewcsim(
      {"serve", "--socket", path, "--workload", "encryption_12k=1",
       "--threshold", "5"},
      log);

  std::string error;
  auto conn = server::ClientConnection::connect(
      path, "drain-test", Duration::from_seconds(10.0), &error);
  ASSERT_NE(conn, nullptr) << error;

  const auto spec = workloads::encryption_12k();
  CompletionReply r0, r1;
  std::thread t0([&] {
    r0 = conn->launch(make_launch(spec, "x#0000"),
                      Duration::from_seconds(30.0));
  });
  std::thread t1([&] {
    r1 = conn->launch(make_launch(spec, "x#0001"),
                      Duration::from_seconds(30.0));
  });
  // Give both launch frames time to land in the daemon's pending batch.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ::kill(server_pid, SIGTERM);
  t0.join();
  t1.join();

  // Outstanding replies are failed with an explicit drain error...
  EXPECT_FALSE(r0.ok);
  EXPECT_FALSE(r1.ok);
  EXPECT_NE(r0.error.find("draining"), std::string::npos) << r0.error;
  EXPECT_NE(r1.error.find("draining"), std::string::npos) << r1.error;

  // ...and the daemon still flushes the batch and exits 0.
  EXPECT_EQ(wait_exit_code(server_pid), 0);
  const auto out = read_file(log);
  EXPECT_NE(out.find("ewcd drained, exiting"), std::string::npos) << out;
  const auto reports = parse_records(out, "REPORT");
  ASSERT_EQ(reports.size(), 1u);  // the drain flush executed the pending batch
  EXPECT_EQ(reports[0].at("n"), "2");
}

TEST(ServerProcessTest, ClientFlushRunsTheRemainderUnderTheThreshold) {
  // 22 instances against threshold 7: whatever batches the threshold and
  // the close check close, a remainder is left that only `--flush`
  // runs. The client must flush once its launches are on the wire, while
  // every app thread still waits for its reply.
  const std::string path = socket_path("flushrest");
  ::unlink(path.c_str());
  const std::string dir = ::testing::TempDir();
  const std::vector<std::string> mix = {
      "--workload", "encryption_6k=4",  "--workload", "kmeans_256k=4",
      "--workload", "encryption_12k=6", "--workload", "sorting_6k=3",
      "--workload", "t78_montecarlo=2", "--workload", "search_10k=3"};
  std::vector<std::string> serve = {"serve", "--socket", path, "--threshold",
                                    "7"};
  serve.insert(serve.end(), mix.begin(), mix.end());
  const std::string serve_log = dir + "ewcd_flushrest_serve.log";
  const pid_t server_pid = spawn_ewcsim(serve, serve_log);

  std::vector<std::string> client = {"client", "--socket", path, "--flush",
                                     "--timeout", "30"};
  client.insert(client.end(), mix.begin(), mix.end());
  const std::string client_log = dir + "ewcd_flushrest_client.log";
  const int client_exit = wait_exit_code(spawn_ewcsim(client, client_log));
  ::kill(server_pid, SIGTERM);
  EXPECT_EQ(wait_exit_code(server_pid), 0) << read_file(serve_log);

  const std::string out = read_file(client_log);
  EXPECT_EQ(client_exit, 0) << out;
  EXPECT_NE(out.find("FLUSH ok"), std::string::npos) << out;
  const auto replies = parse_records(out, "REPLY");
  EXPECT_EQ(replies.size(), 22u) << out;
  for (const auto& r : replies) EXPECT_EQ(r.at("ok"), "1") << out;
}

/// SIGTERM a piped daemon; expect a clean exit.
void stop_piped(const PipedEwcsim& daemon) {
  ::kill(daemon.pid, SIGTERM);
  const std::string out = read_all(daemon.out);
  EXPECT_EQ(wait_exit_code(daemon.pid), 0) << out;
  ::close(daemon.out);
}

// ThreadSanitizer's runtime runs a thread of its own in every process.
#if defined(__SANITIZE_THREAD__)
constexpr int kRuntimeThreads = 1;
#else
constexpr int kRuntimeThreads = 0;
#endif

// Replacing a shard or a router costs its start-up, so before its first
// client a daemon runs only the threads it cannot serve without: pump
// workers start with the first frame, and the metrics sampler runs on the
// reactor's tick.
TEST(ServerProcessTest, DaemonsStartNoThreadBeforeTheirFirstClient) {
  std::vector<PipedEwcsim> shards;
  std::vector<std::string> endpoints;
  for (const char* tag : {"threads_a", "threads_b"}) {
    const std::string path = socket_path(tag);
    ::unlink(path.c_str());
    shards.push_back(spawn_ewcsim_piped(
        {"serve", "--socket", path, "--workload", "encryption_6k=4"}));
    endpoints.push_back(read_banner(shards.back().out));
    EXPECT_FALSE(endpoints.back().empty()) << tag;
    // main, backend, reactor and demux.
    EXPECT_EQ(thread_count(shards.back().pid), 4 + kRuntimeThreads) << tag;
  }
  const std::string router_path = socket_path("threads_r");
  ::unlink(router_path.c_str());
  const PipedEwcsim router =
      spawn_ewcsim_piped({"route", "--listen", router_path, "--shard",
                          endpoints[0], "--shard", endpoints[1]});
  EXPECT_FALSE(read_banner(router.out).empty());
  // main, reactor and poller, and one poll connection's reader per shard
  // once the poller has dialed it.
  const int router_threads = thread_count(router.pid);
  EXPECT_GE(router_threads, 3 + kRuntimeThreads);
  EXPECT_LE(router_threads, 5 + kRuntimeThreads);
  stop_piped(router);
  for (const auto& shard : shards) stop_piped(shard);
}

// Serve and client both resolve the host name "localhost": in a static
// ewcsim that goes through the installed glibc's NSS modules.
TEST(ServerProcessTest, ServesTcpLocalhostAndAnswersAClient) {
  const PipedEwcsim server = spawn_ewcsim_piped(
      {"serve", "--socket", "tcp:localhost:0", "--workload",
       "encryption_6k=1"});
  const std::string endpoint = read_banner(server.out);
  EXPECT_EQ(endpoint.rfind("tcp:localhost:", 0), 0u) << endpoint;
  if (!endpoint.empty()) {
    const std::string log =
        ::testing::TempDir() + "ewcd_tcp_localhost_client.log";
    EXPECT_EQ(wait_exit_code(spawn_ewcsim({"client", "--socket", endpoint,
                                           "--workload", "encryption_6k=1",
                                           "--flush"},
                                          log)),
              0);
    const std::string out = read_file(log);
    const auto replies = parse_records(out, "REPLY");
    EXPECT_EQ(replies.size(), 1u) << out;
    for (const auto& r : replies) EXPECT_EQ(r.at("ok"), "1") << out;
  }
  stop_piped(server);
}

// ---- in-process server: fault isolation and service properties ----

TEST(ServerTest, ClientKilledMidBatchFailsOnlyItsReplies) {
  const auto spec = workloads::encryption_12k();
  const std::vector<consolidate::WorkloadMix> mix = {{spec, 4}};
  server::ServerOptions sopt;
  sopt.socket_path = socket_path("kill");
  TestDaemon daemon(mix, /*threshold=*/4, sopt);
  ASSERT_TRUE(daemon.started) << daemon.start_error;

  // Client A submits two launches, then dies abruptly before the batch runs.
  {
    net::Socket a = raw_handshake(sopt.socket_path, "doomed");
    ASSERT_TRUE(a.valid());
    std::string err;
    auto reqA0 = make_launch(spec, "dead#0000");
    reqA0.request_id = 1;
    auto reqA1 = make_launch(spec, "dead#0001");
    reqA1.request_id = 2;
    for (const auto& req : {reqA0, reqA1}) {
      ASSERT_EQ(net::write_frame(
                    a, static_cast<std::uint16_t>(server::MsgType::kLaunch),
                    server::encode_launch(req), Deadline::never(), &err),
                net::IoStatus::kOk);
    }
    // Socket closes here — a crash from the daemon's point of view.
  }

  // Client B's two launches complete the batch; B must be unaffected.
  std::string error;
  auto conn = server::ClientConnection::connect(
      sopt.socket_path, "survivor", Duration::from_seconds(5.0), &error);
  ASSERT_NE(conn, nullptr) << error;
  CompletionReply r0, r1;
  std::thread t0([&] {
    r0 = conn->launch(make_launch(spec, "live#0000"),
                      Duration::from_seconds(30.0));
  });
  std::thread t1([&] {
    r1 = conn->launch(make_launch(spec, "live#0001"),
                      Duration::from_seconds(30.0));
  });
  t0.join();
  t1.join();
  EXPECT_TRUE(r0.ok) << r0.error;
  EXPECT_TRUE(r1.ok) << r1.error;
  EXPECT_GT(r0.finish_time.seconds(), 0.0);

  // The daemon processed all four launches in one batch and kept serving.
  const auto reports = daemon.backend->reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].num_instances, 4);
  daemon.server->stop();
}

TEST(ServerTest, InflightLimitRejectsExcessLaunches) {
  const auto spec = workloads::encryption_12k();
  server::ServerOptions sopt;
  sopt.socket_path = socket_path("inflight");
  sopt.inflight_limit = 2;
  // Threshold far above what we send: launches stay unanswered.
  TestDaemon daemon({{spec, 1}}, /*threshold=*/100, sopt);
  ASSERT_TRUE(daemon.started) << daemon.start_error;

  net::Socket sock = raw_handshake(sopt.socket_path, "greedy");
  ASSERT_TRUE(sock.valid());
  std::string err;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    auto req = make_launch(spec, "greedy#000" + std::to_string(id));
    req.request_id = id;
    ASSERT_EQ(net::write_frame(
                  sock, static_cast<std::uint16_t>(server::MsgType::kLaunch),
                  server::encode_launch(req), Deadline::never(), &err),
              net::IoStatus::kOk);
  }
  // Only the third launch gets an (error) answer: the rejection.
  net::Frame frame;
  ASSERT_EQ(net::read_frame(sock, &frame,
                            Deadline::after(Duration::from_seconds(5.0)),
                            &err),
            net::IoStatus::kOk)
      << err;
  ASSERT_EQ(frame.type,
            static_cast<std::uint16_t>(server::MsgType::kCompletion));
  const auto reply = server::decode_completion(frame.payload);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->request_id, 3u);
  EXPECT_FALSE(reply->ok);
  EXPECT_NE(reply->error.find("in-flight limit"), std::string::npos)
      << reply->error;
  sock.close();
  daemon.server->stop();
}

TEST(ServerTest, RequestDeadlineExpiresUnansweredLaunches) {
  const auto spec = workloads::encryption_12k();
  server::ServerOptions sopt;
  sopt.socket_path = socket_path("deadline");
  sopt.request_deadline = Duration::from_seconds(0.1);
  TestDaemon daemon({{spec, 1}}, /*threshold=*/100, sopt);
  ASSERT_TRUE(daemon.started) << daemon.start_error;

  std::string error;
  auto conn = server::ClientConnection::connect(
      sopt.socket_path, "patient", Duration::from_seconds(5.0), &error);
  ASSERT_NE(conn, nullptr) << error;
  EXPECT_EQ(conn->server_settings().deadline_micros, 100000u);

  const auto reply = conn->launch(make_launch(spec, "patient#0000"),
                                  Duration::from_seconds(10.0));
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("deadline"), std::string::npos) << reply.error;
  daemon.server->stop();
}

TEST(ServerTest, FlushForcesPendingBatch) {
  const auto spec = workloads::encryption_12k();
  server::ServerOptions sopt;
  sopt.socket_path = socket_path("flush");
  TestDaemon daemon({{spec, 1}}, /*threshold=*/100, sopt);
  ASSERT_TRUE(daemon.started) << daemon.start_error;

  std::string error;
  auto conn = server::ClientConnection::connect(
      sopt.socket_path, "flusher", Duration::from_seconds(5.0), &error);
  ASSERT_NE(conn, nullptr) << error;

  CompletionReply reply;
  std::thread launcher([&] {
    reply = conn->launch(make_launch(spec, "flusher#0000"),
                         Duration::from_seconds(30.0));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_TRUE(conn->flush(Duration::from_seconds(30.0)));
  launcher.join();
  EXPECT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(daemon.backend->reports().size(), 1u);
  daemon.server->stop();
}

TEST(ServerTest, RemoteFrontendMatchesInProcessFrontendBitForBit) {
  // One instance through the full RemoteFrontend -> socket -> backend path
  // must equal the same instance through the in-process Frontend.
  const auto spec = workloads::encryption_12k();
  const std::vector<consolidate::WorkloadMix> mix = {{spec, 2}};

  gpusim::FluidEngine engine;
  const power::GpuPowerModel model = power::default_device_model();
  consolidate::ExperimentRunner runner(engine, model);
  std::map<std::string, CompletionReply> ref;
  runner.run_dynamic(mix, nullptr, &ref);

  server::ServerOptions sopt;
  sopt.socket_path = socket_path("frontend");
  TestDaemon daemon(mix, /*threshold=*/2, sopt);
  ASSERT_TRUE(daemon.started) << daemon.start_error;

  cudart::KernelRegistry registry;
  const gpusim::KernelDesc desc = spec.gpu;
  registry.register_kernel(
      "spec:" + spec.name,
      [desc](const cudart::LaunchConfig&, std::span<const std::byte>) {
        return desc;
      });

  std::string error;
  auto conn = server::ClientConnection::connect(
      sopt.socket_path, "apps", Duration::from_seconds(5.0), &error);
  ASSERT_NE(conn, nullptr) << error;

  gpusim::FluidEngine client_engine;
  cudart::Runtime runtime(client_engine, &registry);
  std::vector<CompletionReply> replies(2);
  std::vector<std::thread> apps;
  for (int slot = 0; slot < 2; ++slot) {
    apps.emplace_back([&, slot] {
      char suffix[16];
      std::snprintf(suffix, sizeof suffix, "#%04d", slot);
      cudart::Context ctx(spec.name + suffix, 512u << 20);
      server::RemoteFrontend frontend(*conn, ctx.owner(), &registry);
      ctx.set_interceptor(&frontend);

      const auto in_bytes = static_cast<std::size_t>(spec.gpu.h2d_bytes.bytes());
      std::vector<std::uint8_t> input(std::max<std::size_t>(16, in_bytes),
                                      0xAB);
      void* dev = nullptr;
      ASSERT_EQ(runtime.wcudaMalloc(ctx, &dev, input.size()),
                cudart::wcudaError::kSuccess);
      ASSERT_EQ(runtime.wcudaMemcpy(ctx, dev, input.data(), input.size(),
                                    cudart::MemcpyKind::kHostToDevice),
                cudart::wcudaError::kSuccess);
      ASSERT_EQ(runtime.wcudaConfigureCall(
                    ctx,
                    cudart::Dim3{static_cast<unsigned>(spec.gpu.num_blocks), 1,
                                 1},
                    cudart::Dim3{
                        static_cast<unsigned>(spec.gpu.threads_per_block), 1,
                        1},
                    0),
                cudart::wcudaError::kSuccess);
      const std::uint64_t token = static_cast<std::uint64_t>(slot);
      ASSERT_EQ(runtime.wcudaSetupArgument(ctx, &token, sizeof token, 0),
                cudart::wcudaError::kSuccess);
      ASSERT_EQ(runtime.wcudaLaunch(ctx, "spec:" + spec.name),
                cudart::wcudaError::kSuccess);
      replies[static_cast<std::size_t>(slot)] = frontend.last_completion();
      runtime.wcudaFree(ctx, dev);
    });
  }
  for (auto& t : apps) t.join();

  for (int slot = 0; slot < 2; ++slot) {
    char suffix[16];
    std::snprintf(suffix, sizeof suffix, "#%04d", slot);
    const auto& want = ref.at(spec.name + suffix);
    const auto& got = replies[static_cast<std::size_t>(slot)];
    ASSERT_TRUE(got.ok) << got.error;
    EXPECT_EQ(got.where, want.where);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.finish_time.seconds()),
              std::bit_cast<std::uint64_t>(want.finish_time.seconds()));
  }
  daemon.server->stop();
}

TEST(ServerTest, ServerFullTurnsAwayExtraClients) {
  const auto spec = workloads::encryption_12k();
  server::ServerOptions sopt;
  sopt.socket_path = socket_path("full");
  sopt.max_clients = 1;
  TestDaemon daemon({{spec, 1}}, /*threshold=*/100, sopt);
  ASSERT_TRUE(daemon.started) << daemon.start_error;

  std::string e1, e2;
  auto first = server::ClientConnection::connect(
      sopt.socket_path, "one", Duration::from_seconds(5.0), &e1);
  ASSERT_NE(first, nullptr) << e1;
  auto second = server::ClientConnection::connect(
      sopt.socket_path, "two", Duration::from_seconds(5.0), &e2);
  EXPECT_EQ(second, nullptr);
  EXPECT_NE(e2.find("server full"), std::string::npos) << e2;
  daemon.server->stop();
}

TEST(ServerTest, UnsupportedProtocolVersionIsRefused) {
  const auto spec = workloads::encryption_12k();
  server::ServerOptions sopt;
  sopt.socket_path = socket_path("version");
  TestDaemon daemon({{spec, 1}}, /*threshold=*/100, sopt);
  ASSERT_TRUE(daemon.started) << daemon.start_error;

  std::string err;
  auto sock = net::connect_unix(sopt.socket_path,
                                Deadline::after(Duration::from_seconds(5.0)),
                                &err);
  ASSERT_TRUE(sock.has_value()) << err;
  ASSERT_EQ(net::write_frame(
                *sock, static_cast<std::uint16_t>(server::MsgType::kHello),
                server::encode_hello({99, "time-traveler"}), Deadline::never(),
                &err),
            net::IoStatus::kOk);
  net::Frame frame;
  ASSERT_EQ(net::read_frame(*sock, &frame,
                            Deadline::after(Duration::from_seconds(5.0)),
                            &err),
            net::IoStatus::kOk);
  EXPECT_EQ(frame.type, static_cast<std::uint16_t>(server::MsgType::kError));
  const auto msg = server::decode_error(frame.payload);
  ASSERT_TRUE(msg.has_value());
  EXPECT_NE(msg->message.find("version"), std::string::npos) << msg->message;
  daemon.server->stop();
}

TEST(ServerTest, ClientShutdownRequestStopsTheServer) {
  const auto spec = workloads::encryption_12k();
  server::ServerOptions sopt;
  sopt.socket_path = socket_path("shutdown");
  TestDaemon daemon({{spec, 1}}, /*threshold=*/100, sopt);
  ASSERT_TRUE(daemon.started) << daemon.start_error;

  std::string error;
  auto conn = server::ClientConnection::connect(
      sopt.socket_path, "admin", Duration::from_seconds(5.0), &error);
  ASSERT_NE(conn, nullptr) << error;
  EXPECT_TRUE(conn->request_shutdown());
  daemon.server->wait();
  EXPECT_FALSE(daemon.server->running());
}

// ---- live session migration ----

TEST(ServerTest, MigrationMovesASessionAndReplaysBitIdentically) {
  const auto spec = workloads::encryption_12k();
  server::ServerOptions src_opt;
  src_opt.socket_path = socket_path("mig_src");
  TestDaemon src({{spec, 1}}, /*threshold=*/1, src_opt);
  ASSERT_TRUE(src.started) << src.start_error;
  server::ServerOptions dst_opt;
  dst_opt.socket_path = socket_path("mig_dst");
  TestDaemon dst({{spec, 1}}, /*threshold=*/1, dst_opt);
  ASSERT_TRUE(dst.started) << dst.start_error;

  server::ClientOptions copt;
  copt.auto_reconnect = true;
  copt.session_nonce = 0x5e551;
  std::string error;
  auto conn = server::ClientConnection::connect(
      src_opt.socket_path, "mig", Duration::from_seconds(5.0), copt, &error);
  ASSERT_NE(conn, nullptr) << error;
  const auto original =
      conn->launch(make_launch(spec, "mig#0000"), Duration::from_seconds(30.0));
  ASSERT_TRUE(original.ok) << original.error;
  // Drop the client: replay_grace keeps the parked session exportable.
  conn.reset();

  auto admin_src = server::ClientConnection::connect(
      src_opt.socket_path, "router.migrate", Duration::from_seconds(5.0),
      &error);
  ASSERT_NE(admin_src, nullptr) << error;
  const auto exported =
      admin_src->migrate_export(copt.session_nonce, /*commit=*/false,
                                Duration::from_seconds(10.0));
  ASSERT_TRUE(exported.has_value());
  ASSERT_TRUE(exported->ok) << exported->error;
  ASSERT_EQ(exported->snapshot.entries.size(), 1u);
  const auto& entry = exported->snapshot.entries.front();
  EXPECT_EQ(entry.owner, "mig#0000");
  EXPECT_EQ(f64_bits(entry.finish_seconds),
            f64_bits(original.finish_time.seconds()));

  // A snapshot without commit leaves the source authoritative: exporting
  // again yields the same session.
  const auto again = admin_src->migrate_export(
      copt.session_nonce, /*commit=*/false, Duration::from_seconds(10.0));
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->ok) << again->error;

  auto admin_dst = server::ClientConnection::connect(
      dst_opt.socket_path, "router.migrate", Duration::from_seconds(5.0),
      &error);
  ASSERT_NE(admin_dst, nullptr) << error;
  const auto imported =
      admin_dst->migrate_import(exported->snapshot, Duration::from_seconds(10.0));
  ASSERT_TRUE(imported.has_value());
  ASSERT_TRUE(imported->ok) << imported->error;

  // Import acked: commit drops the source copy, after which the session is
  // gone there.
  const auto commit = admin_src->migrate_export(
      copt.session_nonce, /*commit=*/true, Duration::from_seconds(10.0));
  ASSERT_TRUE(commit.has_value());
  EXPECT_TRUE(commit->ok) << commit->error;
  const auto gone = admin_src->migrate_export(
      copt.session_nonce, /*commit=*/false, Duration::from_seconds(10.0));
  ASSERT_TRUE(gone.has_value());
  EXPECT_FALSE(gone->ok);
  EXPECT_NE(gone->error.find("unknown session"), std::string::npos)
      << gone->error;

  // Resume the session on the target: the replayed launch must hit the
  // imported dedup table and come back bit-identical, not recompute.
  const obs::Counter replays =
      obs::Registry::instance().counter("server.replayed_requests");
  const double replays_before = replays.value();
  auto resumed = server::ClientConnection::connect(
      dst_opt.socket_path, "mig", Duration::from_seconds(5.0), copt, &error);
  ASSERT_NE(resumed, nullptr) << error;
  auto req = make_launch(spec, "mig#0000");
  const auto replayed = resumed->launch(std::move(req),
                                        Duration::from_seconds(30.0));
  ASSERT_TRUE(replayed.ok) << replayed.error;
  EXPECT_EQ(replayed.where, original.where);
  EXPECT_EQ(f64_bits(replayed.finish_time.seconds()),
            f64_bits(original.finish_time.seconds()));
  EXPECT_GE(replays.value(), replays_before + 1.0);

  src.server->stop();
  dst.server->stop();
}

TEST(ServerTest, MigrateExportRefusesBusySessionsUntilFlushed) {
  const auto spec = workloads::encryption_12k();
  server::ServerOptions sopt;
  sopt.socket_path = socket_path("mig_busy");
  // threshold 100: launches park in the backend until an explicit flush.
  TestDaemon daemon({{spec, 1}}, /*threshold=*/100, sopt);
  ASSERT_TRUE(daemon.started) << daemon.start_error;

  server::ClientOptions copt;
  copt.auto_reconnect = true;
  copt.session_nonce = 0xb0557;
  std::string error;
  auto conn = server::ClientConnection::connect(
      sopt.socket_path, "busy", Duration::from_seconds(5.0), copt, &error);
  ASSERT_NE(conn, nullptr) << error;

  std::promise<consolidate::CompletionReply> done;
  auto fut = done.get_future();
  const auto id = conn->launch_async(
      make_launch(spec, "busy#0000"),
      [&done](const consolidate::CompletionReply& r) { done.set_value(r); });
  ASSERT_NE(id, 0u);

  auto admin = server::ClientConnection::connect(
      sopt.socket_path, "router.migrate", Duration::from_seconds(5.0), &error);
  ASSERT_NE(admin, nullptr) << error;

  // The launch races our export probe: poll until the in-flight request is
  // visible as a refusal (an early probe may still see an ok empty export).
  bool saw_busy = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!saw_busy && std::chrono::steady_clock::now() < deadline) {
    const auto probe = admin->migrate_export(
        copt.session_nonce, /*commit=*/false, Duration::from_seconds(10.0));
    ASSERT_TRUE(probe.has_value());
    if (!probe->ok && probe->error.find("busy") != std::string::npos) {
      saw_busy = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(saw_busy) << "in-flight launch never refused an export";

  ASSERT_TRUE(conn->flush(Duration::from_seconds(30.0)));
  const auto reply = fut.get();
  ASSERT_TRUE(reply.ok) << reply.error;

  // Quiesced: the export now succeeds and carries the completed launch.
  const auto exported = admin->migrate_export(
      copt.session_nonce, /*commit=*/false, Duration::from_seconds(10.0));
  ASSERT_TRUE(exported.has_value());
  ASSERT_TRUE(exported->ok) << exported->error;
  EXPECT_EQ(exported->snapshot.entries.size(), 1u);
  daemon.server->stop();
}

TEST(ServerTest, MigrateFaultRefusesExportAndLeavesSourceAuthoritative) {
  const auto spec = workloads::encryption_12k();
  server::ServerOptions sopt;
  sopt.socket_path = socket_path("mig_fault");
  TestDaemon daemon({{spec, 1}}, /*threshold=*/1, sopt);
  ASSERT_TRUE(daemon.started) << daemon.start_error;

  server::ClientOptions copt;
  copt.auto_reconnect = true;
  copt.session_nonce = 0xfa07;
  std::string error;
  auto conn = server::ClientConnection::connect(
      sopt.socket_path, "fault", Duration::from_seconds(5.0), copt, &error);
  ASSERT_NE(conn, nullptr) << error;
  const auto reply = conn->launch(make_launch(spec, "fault#0000"),
                                  Duration::from_seconds(30.0));
  ASSERT_TRUE(reply.ok) << reply.error;

  auto admin = server::ClientConnection::connect(
      sopt.socket_path, "router.migrate", Duration::from_seconds(5.0), &error);
  ASSERT_NE(admin, nullptr) << error;

  std::string arm_error;
  ASSERT_TRUE(fault::Injector::instance().arm("server.migrate=fail:times=1",
                                              42, &arm_error))
      << arm_error;
  const auto refused = admin->migrate_export(
      copt.session_nonce, /*commit=*/false, Duration::from_seconds(10.0));
  fault::Injector::instance().disarm();
  ASSERT_TRUE(refused.has_value());
  EXPECT_FALSE(refused->ok);
  EXPECT_NE(refused->error.find("injected fault"), std::string::npos)
      << refused->error;

  // The refusal mutated nothing: the very next export sees the session
  // whole.
  const auto exported = admin->migrate_export(
      copt.session_nonce, /*commit=*/false, Duration::from_seconds(10.0));
  ASSERT_TRUE(exported.has_value());
  ASSERT_TRUE(exported->ok) << exported->error;
  EXPECT_EQ(exported->snapshot.entries.size(), 1u);
  daemon.server->stop();
}

// ---------------- batched reply path ----------------

/// Completions one client received, in arrival order.
struct ReplyLog {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<CompletionReply> replies;

  std::function<void(const CompletionReply&)> sink() {
    // Notified under the lock: once a waiter sees its count, the reader
    // thread is done with this log.
    return [this](const CompletionReply& r) {
      std::lock_guard lock(mu);
      replies.push_back(r);
      cv.notify_all();
    };
  }
  bool wait_for(std::size_t n, Duration timeout) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, std::chrono::duration<double>(timeout.seconds()),
                       [&] { return replies.size() >= n; });
  }
};

double counter_value(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

// A flushed 16-request group on one connection leaves the daemon as one
// write, and its replies are bit-identical to the in-process backend's, in
// the backend's order.
TEST(ServerTest, FlushedGroupLeavesInOneWriteInBackendOrder) {
  const auto spec = workloads::encryption_6k();
  constexpr int kGroup = 16;

  server::ServerOptions ref_opt;
  ref_opt.socket_path = socket_path("group_ref");
  TestDaemon ref({{spec, 1}}, /*threshold=*/100, ref_opt);
  ASSERT_TRUE(ref.started) << ref.start_error;
  auto channel = std::make_shared<consolidate::ReplyChannel>();
  for (int i = 0; i < kGroup; ++i) {
    auto req = make_launch(spec, "group");
    req.request_id = static_cast<std::uint64_t>(i + 1);
    req.reply = channel;
    ASSERT_TRUE(ref.backend->channel().send(std::move(req)));
  }
  ref.backend->flush();
  const auto expected = channel->receive_all();
  ASSERT_EQ(expected.size(), static_cast<std::size_t>(kGroup));

  server::ServerOptions sopt;
  sopt.socket_path = socket_path("group");
  TestDaemon daemon({{spec, 1}}, /*threshold=*/100, sopt);
  ASSERT_TRUE(daemon.started) << daemon.start_error;
  ReplyLog log;  // outlives the connection and its reader thread
  std::string error;
  auto conn = server::ClientConnection::connect(
      sopt.socket_path, "group", Duration::from_seconds(5.0), &error);
  ASSERT_NE(conn, nullptr) << error;
  const double writes_before = counter_value("server.reply_writes");
  for (int i = 0; i < kGroup; ++i) {
    ASSERT_NE(conn->launch_async(make_launch(spec, "group"), log.sink()), 0u);
  }
  ASSERT_TRUE(conn->flush(Duration::from_seconds(30.0)));
  ASSERT_TRUE(log.wait_for(kGroup, Duration::from_seconds(30.0)));
  EXPECT_EQ(counter_value("server.reply_writes") - writes_before, 1.0);

  ASSERT_EQ(log.replies.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& got = log.replies[i];
    EXPECT_EQ(got.request_id, expected[i].request_id) << i;
    EXPECT_TRUE(got.ok) << got.error;
    EXPECT_EQ(got.where, expected[i].where) << i;
    EXPECT_EQ(f64_bits(got.finish_time.seconds()),
              f64_bits(expected[i].finish_time.seconds()))
        << i;
  }
  daemon.server->stop();
  ref.server->stop();
}

// A client that stops reading until its socket buffer is full must not
// delay any other connection: the demux never blocks on a socket, and the
// stuck connection's pump finishes its writes once it drains — every reply
// exactly once.
TEST(ServerTest, StuckClientDoesNotDelayOtherConnections) {
  const auto spec = workloads::encryption_6k();
  // Enough replies to overfill the stuck socket's send buffer twice over.
  std::size_t wmem = 212992;
  if (FILE* f = std::fopen("/proc/sys/net/core/wmem_default", "r")) {
    unsigned long v = 0;
    if (std::fscanf(f, "%lu", &v) == 1 && v > 0) wmem = v;
    std::fclose(f);
  }
  consolidate::CompletionReply probe;
  probe.ok = true;
  const std::size_t frame_bytes =
      net::kFrameHeaderSize + server::encode_completion(probe).size();
  const std::size_t stuck_n = (2 * wmem / frame_bytes + 15) / 16 * 16;

  server::ServerOptions sopt;
  sopt.socket_path = socket_path("stuck");
  sopt.inflight_limit = 1 << 22;
  // Longer than the bound below: a writer blocked on the stuck socket would
  // hold the other client's replies past it.
  sopt.io_timeout = Duration::from_seconds(120.0);
  TestDaemon daemon({{spec, 1}}, /*threshold=*/16, sopt);
  ASSERT_TRUE(daemon.started) << daemon.start_error;

  net::Socket stuck = raw_handshake(sopt.socket_path, "stuck");
  ASSERT_TRUE(stuck.valid());
  std::vector<std::byte> launches;
  for (std::size_t i = 1; i <= stuck_n; ++i) {
    auto req = make_launch(spec, "stuck");
    req.request_id = i;
    net::append_frame(launches,
                      static_cast<std::uint16_t>(server::MsgType::kLaunch),
                      server::encode_launch(req));
  }
  std::string err;
  ASSERT_EQ(stuck.send_exact(launches.data(), launches.size(),
                             Deadline::after(Duration::from_seconds(60.0)),
                             &err),
            net::IoStatus::kOk)
      << err;
  // Wait until the daemon has filled the stuck socket: its receive queue
  // stops growing, short of every reply.
  int queued = -1;
  for (int stable = 0, polls = 0; stable < 6 && polls < 1200; ++polls) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    int now = 0;
    ASSERT_EQ(::ioctl(stuck.fd(), FIONREAD, &now), 0);
    stable = now > 0 && now == queued ? stable + 1 : 0;
    queued = now;
  }
  ASSERT_GT(queued, 0);
  ASSERT_LT(static_cast<std::size_t>(queued), stuck_n * frame_bytes)
      << "the stuck socket never filled";

  ReplyLog log;  // outlives the connection and its reader thread
  std::string error;
  auto other = server::ClientConnection::connect(
      sopt.socket_path, "other", Duration::from_seconds(5.0), &error);
  ASSERT_NE(other, nullptr) << error;
  for (int i = 0; i < 16; ++i) {
    ASSERT_NE(other->launch_async(make_launch(spec, "other"), log.sink()), 0u);
  }
  ASSERT_TRUE(other->flush(Duration::from_seconds(60.0)));
  ASSERT_TRUE(log.wait_for(16, Duration::from_seconds(60.0)))
      << "a stuck client delayed another connection's replies";
  for (const auto& r : log.replies) EXPECT_TRUE(r.ok) << r.error;

  // The stuck client has not read a byte; now it drains everything.
  std::vector<int> seen(stuck_n + 1, 0);
  std::size_t answered = 0;
  net::FrameBuffer rx;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (answered < stuck_n && std::chrono::steady_clock::now() < give_up) {
    net::Frame frame;
    const auto s = net::read_frame(
        stuck, rx, &frame, Deadline::after(Duration::from_seconds(0.2)), &err);
    if (s == net::IoStatus::kTimeout) {
      daemon.backend->flush();  // the last partial batch
      continue;
    }
    ASSERT_EQ(s, net::IoStatus::kOk) << err;
    ASSERT_EQ(frame.type,
              static_cast<std::uint16_t>(server::MsgType::kCompletion));
    const auto reply = server::decode_completion(frame.payload);
    ASSERT_TRUE(reply.has_value());
    ASSERT_TRUE(reply->ok) << reply->error;
    ASSERT_GE(reply->request_id, 1u);
    ASSERT_LE(reply->request_id, stuck_n);
    EXPECT_EQ(++seen[reply->request_id], 1) << reply->request_id;
    ++answered;
  }
  EXPECT_EQ(answered, stuck_n);
  stuck.close();
  daemon.server->stop();
}

// With a fault scenario armed every reply goes through the connection's
// pump one frame at a time, so each passes server.reply and net.frame.send
// exactly once.
TEST(ServerTest, ArmedFaultSitesStillFireOncePerReplyFrame) {
  const auto spec = workloads::encryption_6k();
  constexpr int kGroup = 16;
  server::ServerOptions sopt;
  sopt.socket_path = socket_path("sites");
  TestDaemon daemon({{spec, 1}}, /*threshold=*/kGroup, sopt);
  ASSERT_TRUE(daemon.started) << daemon.start_error;

  auto& inj = fault::Injector::instance();
  std::string err;
  ASSERT_TRUE(inj.arm("server.reply=delay:dur=0;net.frame.send=delay:dur=0",
                      42, &err))
      << err;
  ReplyLog log;  // outlives the connection and its reader thread
  std::string error;
  auto conn = server::ClientConnection::connect(
      sopt.socket_path, "sites", Duration::from_seconds(5.0), &error);
  ASSERT_NE(conn, nullptr) << error;
  for (int i = 0; i < kGroup; ++i) {
    ASSERT_NE(conn->launch_async(make_launch(spec, "sites"), log.sink()), 0u);
  }
  ASSERT_TRUE(log.wait_for(kGroup, Duration::from_seconds(30.0)));
  const auto reply_fires = inj.fired("server.reply");
  const auto frame_fires = inj.fired("net.frame.send");
  inj.disarm();
  for (const auto& r : log.replies) EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(reply_fires, static_cast<std::uint64_t>(kGroup));
  // hello + hello_ok + 16 launches + 16 completions.
  EXPECT_EQ(frame_fires, static_cast<std::uint64_t>(2 + 2 * kGroup));
  daemon.server->stop();
}

/// 32 launches of a two-kernel mix through one client, on a fresh daemon,
/// then a flush: after the first full batch the 2:1 mix closes batches
/// below the threshold, so the last launches wait for it.
std::vector<CompletionReply> serve_mix(const std::string& tag) {
  const auto enc = workloads::encryption_6k();
  const auto sort = workloads::sorting_6k();
  server::ServerOptions sopt;
  sopt.socket_path = socket_path(tag);
  TestDaemon daemon({{enc, 2}, {sort, 1}}, /*threshold=*/16, sopt);
  EXPECT_TRUE(daemon.started) << daemon.start_error;
  ReplyLog log;  // outlives the connection and its reader thread
  std::string error;
  auto conn = server::ClientConnection::connect(
      sopt.socket_path, tag, Duration::from_seconds(5.0), &error);
  EXPECT_NE(conn, nullptr) << error;
  if (conn == nullptr) return {};
  for (int i = 0; i < 32; ++i) {
    conn->launch_async(make_launch(i % 3 == 2 ? sort : enc, tag), log.sink());
  }
  EXPECT_TRUE(conn->flush(Duration::from_seconds(60.0)));
  EXPECT_TRUE(log.wait_for(32, Duration::from_seconds(60.0)));
  daemon.server->stop();
  std::lock_guard lock(log.mu);
  return log.replies;
}

// The client's buffered reader decodes the same replies whether the daemon
// dribbles every frame out one byte per send or batches them.
TEST(ServerTest, ClientDecodesOneBytePerSendIdentically) {
  const auto batched = serve_mix("decode_batched");
  std::string err;
  ASSERT_TRUE(fault::Injector::instance().arm("net.send=short_write:bytes=1",
                                              42, &err))
      << err;
  const auto dribbled = serve_mix("decode_dribbled");
  fault::Injector::instance().disarm();
  ASSERT_EQ(batched.size(), 32u);
  ASSERT_EQ(dribbled.size(), batched.size());
  const auto by_id = [](std::vector<CompletionReply> v) {
    std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
      return a.request_id < b.request_id;
    });
    return v;
  };
  const auto a = by_id(batched);
  const auto b = by_id(dribbled);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].request_id, b[i].request_id);
    EXPECT_TRUE(b[i].ok) << b[i].error;
    EXPECT_EQ(a[i].where, b[i].where);
    EXPECT_EQ(f64_bits(a[i].finish_time.seconds()),
              f64_bits(b[i].finish_time.seconds()))
        << a[i].request_id;
  }
}

/// A bare listener that runs one script per accepted connection, in order,
/// after answering the client's hello.
class ScriptedDaemon {
 public:
  using Script = std::function<void(net::Socket&)>;

  ScriptedDaemon(const std::string& path, std::vector<Script> scripts) {
    ::unlink(path.c_str());
    std::string err;
    listener_ = net::Listener::bind_unix(path, 4, &err);
    EXPECT_TRUE(listener_.has_value()) << err;
    if (!listener_.has_value()) return;
    thread_ = std::thread([this, scripts = std::move(scripts)] {
      for (const auto& script : scripts) {
        net::IoStatus status;
        std::string aerr;
        auto sock = listener_->accept(
            Deadline::after(Duration::from_seconds(10.0)), &status, &aerr);
        if (!sock.has_value()) return;
        net::Frame hello;
        if (net::read_frame(*sock, &hello,
                            Deadline::after(Duration::from_seconds(10.0)),
                            &aerr) != net::IoStatus::kOk) {
          return;
        }
        server::HelloOkMsg ok;
        ok.inflight_limit = 1024;
        (void)net::write_frame(
            *sock, static_cast<std::uint16_t>(server::MsgType::kHelloOk),
            server::encode_hello_ok(ok), Deadline::never(), &aerr);
        script(*sock);
      }
    });
  }
  ~ScriptedDaemon() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::optional<net::Listener> listener_;
  std::thread thread_;
};

/// The completion a scripted daemon sends for request `id`.
CompletionReply scripted_reply(std::uint64_t id) {
  CompletionReply r;
  r.request_id = id;
  r.ok = id % 5 != 0;
  if (!r.ok) r.error = "scripted failure " + std::to_string(id);
  r.finish_time = Duration::from_seconds(0.001 * static_cast<double>(id) + 1e-9);
  r.where = static_cast<CompletionReply::Where>(id % 3);
  return r;
}

// 256 completions arriving in one write decode exactly as sent.
TEST(ServerTest, ClientDecodesABurstOf256FramesInOneWrite) {
  constexpr std::size_t kBurst = 256;
  const auto path = socket_path("burst");
  ScriptedDaemon daemon(path, {[](net::Socket& sock) {
    std::vector<std::byte> out;
    for (std::size_t i = 0; i < kBurst; ++i) {
      net::Frame launch;
      std::string err;
      if (net::read_frame(sock, &launch,
                          Deadline::after(Duration::from_seconds(10.0)),
                          &err) != net::IoStatus::kOk) {
        return;
      }
      const auto req = server::decode_launch(launch.payload);
      if (!req.has_value()) return;
      net::append_frame(out,
                        static_cast<std::uint16_t>(server::MsgType::kCompletion),
                        server::encode_completion(scripted_reply(req->request_id)));
    }
    std::string err;
    (void)sock.send_exact(out.data(), out.size(), Deadline::never(), &err);
    net::Frame eof;
    (void)net::read_frame(sock, &eof,
                          Deadline::after(Duration::from_seconds(10.0)), &err);
  }});

  ReplyLog log;  // outlives the connection and its reader thread
  std::string error;
  auto conn = server::ClientConnection::connect(
      path, "burst", Duration::from_seconds(5.0), &error);
  ASSERT_NE(conn, nullptr) << error;
  const auto spec = workloads::encryption_6k();
  for (std::size_t i = 0; i < kBurst; ++i) {
    ASSERT_NE(conn->launch_async(make_launch(spec, "burst"), log.sink()), 0u);
  }
  ASSERT_TRUE(log.wait_for(kBurst, Duration::from_seconds(30.0)));
  for (std::size_t i = 0; i < kBurst; ++i) {
    const auto& got = log.replies[i];
    const auto want = scripted_reply(i + 1);
    EXPECT_EQ(got.request_id, want.request_id);
    EXPECT_EQ(got.ok, want.ok);
    EXPECT_EQ(got.error, want.error);
    EXPECT_EQ(got.where, want.where);
    EXPECT_EQ(f64_bits(got.finish_time.seconds()),
              f64_bits(want.finish_time.seconds()));
  }
  conn.reset();
}

// A stream that dies mid-frame leaves a partial frame in the client's
// buffer; the reconnect must discard it, or the new stream's first frame
// would parse from the wrong offset.
TEST(ServerTest, ReconnectDiscardsAPartialFrameFromTheDeadStream) {
  const auto path = socket_path("partial");
  const auto read_launch = [](net::Socket& sock) -> std::uint64_t {
    net::Frame launch;
    std::string err;
    if (net::read_frame(sock, &launch,
                        Deadline::after(Duration::from_seconds(10.0)),
                        &err) != net::IoStatus::kOk) {
      return 0;
    }
    const auto req = server::decode_launch(launch.payload);
    return req.has_value() ? req->request_id : 0;
  };
  ScriptedDaemon daemon(
      path,
      {[&](net::Socket& sock) {
         const std::uint64_t id = read_launch(sock);
         std::vector<std::byte> frame;
         net::append_frame(
             frame, static_cast<std::uint16_t>(server::MsgType::kCompletion),
             server::encode_completion(scripted_reply(id)));
         // Header plus half the payload, then the stream dies.
         const std::size_t keep = net::kFrameHeaderSize + 5;
         std::string err;
         (void)sock.send_exact(frame.data(), keep, Deadline::never(), &err);
         sock.shutdown_rw();
       },
       [&](net::Socket& sock) {
         const std::uint64_t id = read_launch(sock);  // the replay
         std::string err;
         (void)net::write_frame(
             sock, static_cast<std::uint16_t>(server::MsgType::kCompletion),
             server::encode_completion(scripted_reply(id)), Deadline::never(),
             &err);
         net::Frame eof;
         (void)net::read_frame(sock, &eof,
                               Deadline::after(Duration::from_seconds(10.0)),
                               &err);
       }});

  server::ClientOptions copt;
  copt.auto_reconnect = true;
  copt.retry.max_attempts = 3;
  std::string error;
  auto conn = server::ClientConnection::connect(
      path, "partial", Duration::from_seconds(5.0), copt, &error);
  ASSERT_NE(conn, nullptr) << error;
  const auto reply = conn->launch(
      make_launch(workloads::encryption_6k(), "partial"),
      Duration::from_seconds(30.0));
  const auto want = scripted_reply(reply.request_id);
  EXPECT_EQ(reply.request_id, 1u);
  EXPECT_EQ(reply.ok, want.ok) << reply.error;
  EXPECT_EQ(f64_bits(reply.finish_time.seconds()),
            f64_bits(want.finish_time.seconds()));
  EXPECT_EQ(conn->reconnects(), 1u);
  conn.reset();
}

}  // namespace
}  // namespace ewc
