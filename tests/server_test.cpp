// End-to-end tests for the ewcd socket daemon: bit-identity of socket-served
// results against the in-process path, fault isolation, admission control,
// deadlines, and graceful drain. The multi-process cases fork/exec the real
// ewcsim binary (EWCSIM_PATH, injected by CMake).
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "consolidate/runner.hpp"
#include "cudart/runtime.hpp"
#include "ewcsim_process.hpp"
#include "fault/injector.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/registry.hpp"
#include "power/trainer.hpp"
#include "server/client.hpp"
#include "server/protocol_wire.hpp"
#include "server/remote_frontend.hpp"
#include "server/server.hpp"
#include "workloads/paper_configs.hpp"
#include "workloads/rodinia_like.hpp"

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
    power::ModelTrainer trainer(engine);
    auto training = trainer.train(workloads::rodinia_training_kernels());

    consolidate::BackendOptions options;
    options.batch_threshold = threshold;
    auto templates = consolidate::TemplateRegistry::paper_defaults();
    consolidate::ConsolidationTemplate t;
    t.name = "experiment_mix";
    for (const auto& m : mix) t.kernels.insert(m.spec.gpu.name);
    templates.add(std::move(t));

    backend = std::make_unique<consolidate::Backend>(
        engine, training.model, std::move(templates), options);
    for (const auto& m : mix) {
      backend->set_cpu_profile(m.spec.gpu.name, m.spec.cpu);
    }
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
  power::ModelTrainer trainer(engine);
  const auto training = trainer.train(workloads::rodinia_training_kernels());
  consolidate::ExperimentRunner runner(engine, training.model);
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
  power::ModelTrainer trainer(engine);
  const auto training = trainer.train(workloads::rodinia_training_kernels());
  consolidate::ExperimentRunner runner(engine, training.model);
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

}  // namespace
}  // namespace ewc
