// End-to-end loadgen run against a real ewcd daemon (ctest label "load"):
// forks the actual ewcsim binary for both sides, drives 500 concurrent
// sessions through a short bursty profile, and asserts the acceptance bar —
// every session connects, zero lost and zero duplicated requests, and a
// schema-valid BENCH_ewcd.json datapoint lands on disk. Also pins the
// cross-process determinism of --print-schedule, which is what makes two
// trajectory datapoints with equal config hashes comparable at all.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <string>
#include <vector>

#include "ewcsim_process.hpp"
#include "obs/json.hpp"

namespace ewc {
namespace {

/// 500 sessions * (1 client fd + 1 daemon fd) needs headroom over the
/// common 1024 soft limit; children inherit the raised limit.
void raise_fd_limit() {
  struct rlimit rl{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &rl), 0);
  if (rl.rlim_cur < 4096 && rl.rlim_max > rl.rlim_cur) {
    rl.rlim_cur = rl.rlim_max < 4096 ? rl.rlim_max : 4096;
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &rl), 0);
  }
}

TEST(LoadgenE2E, FiveHundredSessionsZeroLostZeroDuplicated) {
  raise_fd_limit();
  const std::string dir = ::testing::TempDir();
  const std::string socket = dir + "/loadgen_e2e.sock";
  const std::string bench = dir + "/loadgen_e2e_bench.json";
  ::unlink(socket.c_str());
  ::unlink(bench.c_str());

  const pid_t server_pid = spawn_ewcsim(
      {"serve", "--socket", socket, "--workload", "encryption_6k=4",
       "--threshold", "16", "--max-clients", "600", "--inflight", "256"},
      dir + "/loadgen_e2e_serve.log");
  ASSERT_GT(server_pid, 0);

  const pid_t load_pid = spawn_ewcsim(
      {"loadgen", "--socket", socket, "--profile",
       "bursty:rate=300:period=2:burst=3:duty=0.2", "--workload",
       "encryption_6k=2", "--workload", "sorting_6k=1", "--sessions", "500",
       "--duration", "4", "--seed", "42", "--out", bench, "--git-rev",
       "e2e-test"},
      dir + "/loadgen_e2e_load.log");
  ASSERT_GT(load_pid, 0);
  const int load_exit = wait_exit_code(load_pid);
  const std::string load_out = read_file(dir + "/loadgen_e2e_load.log");
  EXPECT_EQ(load_exit, 0) << load_out;

  const auto recs = parse_records(load_out, "LOADGEN");
  ASSERT_FALSE(recs.empty()) << load_out;
  const auto& rec = recs.front();
  EXPECT_EQ(rec.at("sessions"), "500");
  EXPECT_EQ(rec.at("lost"), "0");
  EXPECT_EQ(rec.at("dup"), "0");
  EXPECT_GT(std::stoull(rec.at("sent")), 500u);
  EXPECT_EQ(rec.at("completed"), rec.at("sent"));

  // The datapoint landed and every line of the file is one JSON object of
  // the ewcd-bench/v1 schema with the headline metrics present.
  std::ifstream in(bench);
  ASSERT_TRUE(in.good()) << bench;
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    std::string err;
    const auto doc = obs::json::parse(line, &err);
    ASSERT_TRUE(doc.has_value()) << "line " << lines << ": " << err;
    ASSERT_TRUE(doc->is_object());
    EXPECT_EQ(doc->find("schema")->as_string(), "ewcd-bench/v1");
    for (const char* key :
         {"p50_seconds", "p95_seconds", "p99_seconds", "requests_per_second",
          "joules_per_request", "wall_seconds"}) {
      const auto* v = doc->find(key);
      ASSERT_NE(v, nullptr) << key;
      EXPECT_TRUE(v->is_number()) << key;
      EXPECT_GE(v->as_number(), 0.0) << key;
    }
  }
  EXPECT_EQ(lines, 1);

  ::kill(server_pid, SIGTERM);
  EXPECT_EQ(wait_exit_code(server_pid), 0)
      << read_file(dir + "/loadgen_e2e_serve.log");
}

TEST(LoadgenE2E, PrintedScheduleIsIdenticalAcrossProcesses) {
  const std::string dir = ::testing::TempDir();
  const std::vector<std::string> args = {
      "loadgen", "--print-schedule", "--profile",
      "diurnal:rate=120:period=3:depth=0.7", "--workload",
      "encryption_6k=2", "--workload", "sorting_6k=1", "--sessions", "100",
      "--duration", "5", "--seed", "1234"};
  const pid_t a = spawn_ewcsim(args, dir + "/loadgen_sched_a.log");
  ASSERT_EQ(wait_exit_code(a), 0);
  const pid_t b = spawn_ewcsim(args, dir + "/loadgen_sched_b.log");
  ASSERT_EQ(wait_exit_code(b), 0);
  auto reseeded = args;
  reseeded.back() = "1235";
  const pid_t c = spawn_ewcsim(reseeded, dir + "/loadgen_sched_c.log");
  ASSERT_EQ(wait_exit_code(c), 0);

  const auto first = read_file(dir + "/loadgen_sched_a.log");
  EXPECT_FALSE(first.empty());
  EXPECT_NE(first.find("SCHED "), std::string::npos);
  // Bit-exact across processes (times print as IEEE-754 bits)...
  EXPECT_EQ(first, read_file(dir + "/loadgen_sched_b.log"));
  // ...and the seed really is the thing that changes the draw.
  EXPECT_NE(first, read_file(dir + "/loadgen_sched_c.log"));
}

}  // namespace
}  // namespace ewc
