// Chaos test: SIGKILL the daemon mid-batch, restart it on the same socket,
// and require the reconnecting clients to replay their unanswered launches
// so the final results are bit-identical to a fault-free run.
//
// Timeline:
//   1. Fault-free reference: one daemon + 4 client processes, SIGTERM,
//      collect REPORT/TOTAL (daemon) and REPLY (client) records.
//   2. Chaos run: the daemon starts with --threshold 100, so all 8 launches
//      are admitted and forwarded but the batch never fires. Once the
//      daemon's server.requests counter reaches 8, SIGKILL it — no drain,
//      no goodbye, stale socket file left behind.
//   3. Restart the daemon on the same path (exercises stale-socket rebind)
//      with the normal threshold. The clients — still blocked in launch()
//      with --reconnect armed — redial under backoff, re-handshake, and
//      replay. The batch fires once, every client exits 0, and every
//      REPORT/TOTAL/REPLY field matches the reference bit for bit.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "ewcsim_process.hpp"
#include "server/client.hpp"

namespace ewc {
namespace {

using common::Duration;

std::string socket_path(const std::string& tag) {
  return ::testing::TempDir() + "ewcd_chaos_" + tag + ".sock";
}

struct ClientSlice {
  std::string workload;
  int slot_base;
};

const std::vector<ClientSlice> kSlices = {
    {"encryption_12k=2", 0},
    {"encryption_12k=2", 2},
    {"sorting_6k=2", 4},
    {"sorting_6k=2", 6},
};

const std::vector<std::string> kServeWorkloads = {
    "--workload", "encryption_12k=4", "--workload", "sorting_6k=4"};

/// Poll the daemon's counters until `counter` >= want (or deadline).
bool wait_for_counter(const std::string& path, const std::string& counter,
                      double want, Duration deadline) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(deadline.seconds());
  while (std::chrono::steady_clock::now() < until) {
    std::string err;
    auto conn = server::ClientConnection::connect(
        path, "chaos-poll", Duration::from_seconds(2.0), &err);
    if (conn != nullptr) {
      const auto stats = conn->stats(false, Duration::from_seconds(5.0));
      if (stats.has_value()) {
        const auto it = stats->counters.find(counter);
        if (it != stats->counters.end() && it->second >= want) return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

/// REPLY records keyed by owner, pooled across the client logs.
std::map<std::string, std::map<std::string, std::string>> pooled_replies(
    const std::vector<std::string>& logs) {
  std::map<std::string, std::map<std::string, std::string>> replies;
  for (const auto& log : logs) {
    for (auto& rec : parse_records(read_file(log), "REPLY")) {
      replies[rec["owner"]] = rec;
    }
  }
  return replies;
}

TEST(ChaosTest, KillRestartReplayIsBitIdenticalToFaultFreeRun) {
  const std::string out_dir = ::testing::TempDir();

  // ---- 1. fault-free reference run ----
  const std::string ref_path = socket_path("ref");
  ::unlink(ref_path.c_str());
  const std::string ref_server_log = out_dir + "chaos_ref_serve.log";
  std::vector<std::string> serve_args = {"serve", "--socket", ref_path};
  serve_args.insert(serve_args.end(), kServeWorkloads.begin(),
                    kServeWorkloads.end());
  const pid_t ref_server = spawn_ewcsim(serve_args, ref_server_log);

  std::vector<pid_t> ref_clients;
  std::vector<std::string> ref_client_logs;
  for (std::size_t i = 0; i < kSlices.size(); ++i) {
    const auto log = out_dir + "chaos_ref_client" + std::to_string(i) + ".log";
    ref_client_logs.push_back(log);
    ref_clients.push_back(spawn_ewcsim(
        {"client", "--socket", ref_path, "--workload", kSlices[i].workload,
         "--slot-base", std::to_string(kSlices[i].slot_base)},
        log));
  }
  for (const pid_t pid : ref_clients) ASSERT_EQ(wait_exit_code(pid), 0);
  ::kill(ref_server, SIGTERM);
  ASSERT_EQ(wait_exit_code(ref_server), 0);
  const auto ref_out = read_file(ref_server_log);
  const auto ref_reports = parse_records(ref_out, "REPORT");
  const auto ref_totals = parse_records(ref_out, "TOTAL");
  ASSERT_EQ(ref_reports.size(), 1u) << ref_out;
  ASSERT_EQ(ref_totals.size(), 1u) << ref_out;
  const auto ref_replies = pooled_replies(ref_client_logs);
  ASSERT_EQ(ref_replies.size(), 8u);

  // ---- 2. chaos run: admit everything, execute nothing, die ----
  const std::string path = socket_path("kill");
  ::unlink(path.c_str());
  const std::string victim_log = out_dir + "chaos_victim_serve.log";
  std::vector<std::string> victim_args = {"serve",       "--socket", path,
                                          "--threshold", "100"};
  victim_args.insert(victim_args.end(), kServeWorkloads.begin(),
                     kServeWorkloads.end());
  const pid_t victim = spawn_ewcsim(victim_args, victim_log);

  std::vector<pid_t> clients;
  std::vector<std::string> client_logs;
  for (std::size_t i = 0; i < kSlices.size(); ++i) {
    const auto log =
        out_dir + "chaos_kill_client" + std::to_string(i) + ".log";
    client_logs.push_back(log);
    clients.push_back(spawn_ewcsim(
        {"client", "--socket", path, "--workload", kSlices[i].workload,
         "--slot-base", std::to_string(kSlices[i].slot_base), "--reconnect",
         "--retry-max", "120", "--retry-backoff", "0.05",
         "--retry-backoff-max", "0.5", "--breaker", "0"},
        log));
  }

  // All 8 launches admitted and pinned behind the high threshold — the
  // moment of maximum in-flight damage. Kill without ceremony.
  ASSERT_TRUE(wait_for_counter(path, "server.requests", 8.0,
                               Duration::from_seconds(120.0)))
      << read_file(victim_log);
  ::kill(victim, SIGKILL);
  ASSERT_EQ(wait_exit_code(victim), -SIGKILL);

  // ---- 3. restart on the same (stale) socket path; clients replay ----
  const std::string restart_log = out_dir + "chaos_restart_serve.log";
  std::vector<std::string> restart_args = {"serve", "--socket", path};
  restart_args.insert(restart_args.end(), kServeWorkloads.begin(),
                      kServeWorkloads.end());
  const pid_t restarted = spawn_ewcsim(restart_args, restart_log);

  // Every client must finish cleanly: reconnect, replay, full batch fires.
  for (const pid_t pid : clients) EXPECT_EQ(wait_exit_code(pid), 0);
  ::kill(restarted, SIGTERM);
  ASSERT_EQ(wait_exit_code(restarted), 0);

  const auto chaos_out = read_file(restart_log);
  EXPECT_NE(chaos_out.find("ewcd drained, exiting"), std::string::npos)
      << chaos_out;

  // The restarted daemon's batch must be indistinguishable from the
  // reference run: one REPORT, every field bit-identical.
  const auto reports = parse_records(chaos_out, "REPORT");
  ASSERT_EQ(reports.size(), 1u) << chaos_out;
  for (const auto& [key, want] : ref_reports[0]) {
    ASSERT_TRUE(reports[0].count(key)) << "missing REPORT key " << key;
    EXPECT_EQ(reports[0].at(key), want) << "REPORT key " << key;
  }
  EXPECT_EQ(reports[0].at("degraded"), "0");
  const auto totals = parse_records(chaos_out, "TOTAL");
  ASSERT_EQ(totals.size(), 1u) << chaos_out;
  EXPECT_EQ(totals[0], ref_totals[0]);

  // Every owner's reply — placement and bit-exact finish time — matches.
  const auto replies = pooled_replies(client_logs);
  ASSERT_EQ(replies.size(), 8u);
  for (const auto& [owner, want] : ref_replies) {
    ASSERT_TRUE(replies.count(owner)) << "missing reply for " << owner;
    const auto& got = replies.at(owner);
    EXPECT_EQ(got.at("ok"), "1") << owner;
    EXPECT_EQ(got.at("where"), want.at("where")) << owner;
    EXPECT_EQ(got.at("finish"), want.at("finish")) << owner;
  }

  // And the clients really did take the replay path, not a lucky race.
  int clients_reconnected = 0;
  for (const auto& log : client_logs) {
    const auto recs = parse_records(read_file(log), "RECONNECTS");
    if (!recs.empty()) {
      ++clients_reconnected;
      EXPECT_GE(std::stoi(recs[0].at("replayed")), 1) << log;
    }
  }
  EXPECT_EQ(clients_reconnected, 4);
}

// ---- fleet chaos: SIGKILL one shard behind the router mid-run ----

/// Poll `log_path` until a "listening on <endpoint>" line appears and
/// return the endpoint token ("" on timeout). Works for both the daemon
/// ("ewcd listening on ...") and the router ("router listening on ...");
/// with a TCP port-0 bind this is how the test learns the real port.
std::string wait_for_endpoint(const std::string& log_path, double seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(
                            static_cast<int>(seconds * 1000));
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string text = read_file(log_path);
    const auto at = text.find("listening on ");
    if (at != std::string::npos) {
      auto start = at + std::string("listening on ").size();
      auto end = text.find_first_of(" \n", start);
      if (end != std::string::npos) return text.substr(start, end - start);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return "";
}

// The fleet version of the kill drill: two TCP shards behind the router,
// a 40-session load against the router's endpoint, and one shard
// SIGKILLed mid-run. Sessions placed on the dead shard redial the router,
// get re-placed on the survivor, and replay — the run must end with zero
// lost and zero duplicated requests and every session's arithmetic intact
// (completed == sent), exactly the single-daemon restart contract.
TEST(FleetChaosTest, KillOneShardMidRunLosesAndDuplicatesNothing) {
  const std::string dir = ::testing::TempDir();

  std::vector<pid_t> shard_pids;
  std::vector<std::string> shard_eps;
  for (int i = 0; i < 2; ++i) {
    const std::string log =
        dir + "fleet_chaos_shard" + std::to_string(i) + ".log";
    ::unlink(log.c_str());  // a stale log would satisfy wait_for_endpoint
    const pid_t pid = spawn_ewcsim(
        {"serve", "--socket", "tcp:127.0.0.1:0", "--workload",
         "encryption_6k=4", "--threshold", "4", "--max-clients", "600",
         "--inflight", "256"},
        log);
    ASSERT_GT(pid, 0);
    shard_pids.push_back(pid);
    const std::string ep = wait_for_endpoint(log, 30.0);
    ASSERT_FALSE(ep.empty()) << "shard " << i << " never bound: "
                             << read_file(log);
    shard_eps.push_back(ep);
  }

  const std::string router_log = dir + "fleet_chaos_router.log";
  ::unlink(router_log.c_str());
  const pid_t router_pid = spawn_ewcsim(
      {"route", "--listen", "tcp:127.0.0.1:0", "--shard", shard_eps[0],
       "--shard", shard_eps[1], "--poll", "0.2", "--dial-timeout", "0.5",
       "--breaker-cooldown", "1"},
      router_log);
  ASSERT_GT(router_pid, 0);
  const std::string router_ep = wait_for_endpoint(router_log, 30.0);
  ASSERT_FALSE(router_ep.empty()) << read_file(router_log);

  const std::string load_log = dir + "fleet_chaos_load.log";
  ::unlink(load_log.c_str());
  const pid_t load_pid = spawn_ewcsim(
      {"loadgen", "--socket", router_ep, "--profile", "poisson:rate=150",
       "--workload", "encryption_6k=2", "--workload", "sorting_6k=1",
       "--sessions", "40", "--duration", "3", "--seed", "7", "--reconnect",
       "--drain-timeout", "60", "--out", "none"},
      load_log);
  ASSERT_GT(load_pid, 0);

  // Mid-run, with both shards carrying placed sessions, one shard dies
  // without a goodbye.
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  ASSERT_EQ(::kill(shard_pids[0], SIGKILL), 0);
  EXPECT_EQ(wait_exit_code(shard_pids[0]), -SIGKILL);

  const int load_exit = wait_exit_code(load_pid);
  const std::string load_out = read_file(load_log);
  EXPECT_EQ(load_exit, 0) << load_out;
  const auto recs = parse_records(load_out, "LOADGEN");
  ASSERT_FALSE(recs.empty()) << load_out;
  const auto& rec = recs[0];
  EXPECT_EQ(rec.at("sessions"), "40");
  EXPECT_EQ(rec.at("lost"), "0");
  EXPECT_EQ(rec.at("dup"), "0");
  EXPECT_EQ(rec.at("completed"), rec.at("sent"));
  EXPECT_GT(std::stoull(rec.at("sent")), 40u);

  // The survivor's stats (through the router) must show the fleet degraded
  // to one live shard and the router holding breaker/forwarding state.
  {
    std::string err;
    auto conn = server::ClientConnection::connect(
        router_ep, "fleet-chaos-probe", Duration::from_seconds(10.0), &err);
    ASSERT_NE(conn, nullptr) << err;
    const auto stats = conn->stats(false, Duration::from_seconds(10.0));
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->counters.at("router.shards"), 2.0);
    EXPECT_EQ(stats->counters.at("router.shards_alive"), 1.0);
    EXPECT_EQ(stats->counters.at("shard.0.router.alive"), 0.0);
    EXPECT_EQ(stats->counters.at("shard.1.router.alive"), 1.0);
    EXPECT_GE(stats->counters.at("router.forwarded_frames"), 1.0);
    // The kill severed live replay sessions: the router must have re-homed
    // at least one onto the survivor rather than cutting clients loose.
    EXPECT_GE(stats->counters.at("router.sessions_rehomed"), 1.0);
  }

  ASSERT_EQ(::kill(router_pid, SIGTERM), 0);
  EXPECT_EQ(wait_exit_code(router_pid), 0) << read_file(router_log);
  ASSERT_EQ(::kill(shard_pids[1], SIGTERM), 0);
  EXPECT_EQ(wait_exit_code(shard_pids[1]), 0)
      << read_file(dir + "fleet_chaos_shard1.log");
}

// The front-door version of the kill drill: the same two-shard fleet, but
// fronted by an active/standby router pair, with the loadgen handed both
// endpoints as a comma-separated failover list. SIGKILLing the *primary
// router* mid-run must cost nothing: clients rotate to the standby, which
// refuses hellos until its sync pulls stop answering, promotes itself, and
// serves the rest of the run — zero lost, zero duplicated requests.
TEST(FleetChaosTest, KillPrimaryRouterFailsOverToStandbyLosingNothing) {
  const std::string dir = ::testing::TempDir();

  std::vector<pid_t> shard_pids;
  std::vector<std::string> shard_eps;
  for (int i = 0; i < 2; ++i) {
    const std::string log =
        dir + "router_ha_shard" + std::to_string(i) + ".log";
    ::unlink(log.c_str());
    const pid_t pid = spawn_ewcsim(
        {"serve", "--socket", "tcp:127.0.0.1:0", "--workload",
         "encryption_6k=4", "--threshold", "4", "--max-clients", "600",
         "--inflight", "256"},
        log);
    ASSERT_GT(pid, 0);
    shard_pids.push_back(pid);
    const std::string ep = wait_for_endpoint(log, 30.0);
    ASSERT_FALSE(ep.empty()) << "shard " << i << " never bound: "
                             << read_file(log);
    shard_eps.push_back(ep);
  }

  const std::string primary_log = dir + "router_ha_primary.log";
  ::unlink(primary_log.c_str());
  const pid_t primary_pid = spawn_ewcsim(
      {"route", "--listen", "tcp:127.0.0.1:0", "--shard", shard_eps[0],
       "--shard", shard_eps[1], "--poll", "0.2", "--dial-timeout", "0.5",
       "--breaker-cooldown", "1"},
      primary_log);
  ASSERT_GT(primary_pid, 0);
  const std::string primary_ep = wait_for_endpoint(primary_log, 30.0);
  ASSERT_FALSE(primary_ep.empty()) << read_file(primary_log);

  const std::string standby_log = dir + "router_ha_standby.log";
  ::unlink(standby_log.c_str());
  const pid_t standby_pid = spawn_ewcsim(
      {"route", "--listen", "tcp:127.0.0.1:0", "--shard", shard_eps[0],
       "--shard", shard_eps[1], "--poll", "0.2", "--dial-timeout", "0.5",
       "--breaker-cooldown", "1", "--standby", primary_ep,
       "--standby-failures", "2"},
      standby_log);
  ASSERT_GT(standby_pid, 0);
  const std::string standby_ep = wait_for_endpoint(standby_log, 30.0);
  ASSERT_FALSE(standby_ep.empty()) << read_file(standby_log);

  const std::string load_log = dir + "router_ha_load.log";
  ::unlink(load_log.c_str());
  const pid_t load_pid = spawn_ewcsim(
      {"loadgen", "--socket", primary_ep + "," + standby_ep, "--profile",
       "poisson:rate=150", "--workload", "encryption_6k=2", "--workload",
       "sorting_6k=1", "--sessions", "40", "--duration", "3", "--seed", "7",
       "--reconnect", "--drain-timeout", "60", "--out", "none"},
      load_log);
  ASSERT_GT(load_pid, 0);

  // Mid-run the primary router dies without a goodbye. Clients rotate to
  // the standby; the standby's sync pulls start failing and it promotes.
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  ASSERT_EQ(::kill(primary_pid, SIGKILL), 0);
  EXPECT_EQ(wait_exit_code(primary_pid), -SIGKILL);

  const int load_exit = wait_exit_code(load_pid);
  const std::string load_out = read_file(load_log);
  EXPECT_EQ(load_exit, 0) << load_out;
  const auto recs = parse_records(load_out, "LOADGEN");
  ASSERT_FALSE(recs.empty()) << load_out;
  const auto& rec = recs[0];
  EXPECT_EQ(rec.at("sessions"), "40");
  EXPECT_EQ(rec.at("lost"), "0");
  EXPECT_EQ(rec.at("dup"), "0");
  // Failover must be invisible to the workload: no request may fail inline
  // ("circuit breaker open") just because every rotation dialed the dead
  // primary before finding the standby.
  EXPECT_EQ(rec.at("failed"), "0");
  EXPECT_EQ(rec.at("completed"), rec.at("sent"));
  EXPECT_GT(std::stoull(rec.at("sent")), 40u);

  // The standby must have promoted itself and now answer as an active
  // router fronting both shards.
  ASSERT_TRUE(wait_for_counter(standby_ep, "router.standby_promotions", 1.0,
                               Duration::from_seconds(30.0)))
      << read_file(standby_log);
  {
    std::string err;
    auto conn = server::ClientConnection::connect(
        standby_ep, "router-ha-probe", Duration::from_seconds(10.0), &err);
    ASSERT_NE(conn, nullptr) << err;
    const auto stats = conn->stats(false, Duration::from_seconds(10.0));
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->counters.at("router.standby"), 0.0);
    EXPECT_GE(stats->counters.at("router.standby_promotions"), 1.0);
    EXPECT_EQ(stats->counters.at("router.shards"), 2.0);
    EXPECT_EQ(stats->counters.at("router.shards_alive"), 2.0);
  }

  ASSERT_EQ(::kill(standby_pid, SIGTERM), 0);
  EXPECT_EQ(wait_exit_code(standby_pid), 0) << read_file(standby_log);
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(::kill(shard_pids[i], SIGTERM), 0);
    EXPECT_EQ(wait_exit_code(shard_pids[i]), 0)
        << read_file(dir + "router_ha_shard" + std::to_string(i) + ".log");
  }
}

}  // namespace
}  // namespace ewc
