// Fleet telemetry: the kStats series part of the codecs, the additive
// trace-context fields on kLaunch, the Sampler time-series rings, the
// Prometheus text exposition — and three fork/exec end-to-end cases: a
// two-shard fleet whose merged trace stitches ≥99% of requests into
// connected loadgen→router→shard→backend chains, `ewcsim top
// --once --json/--prometheus` against a live daemon, and the names fixture
// that pins which stats/metrics/Prometheus names a shard and a router
// serve.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "consolidate/protocol.hpp"
#include "ewcsim_process.hpp"
#include "net/endpoint.hpp"
#include "net/frame.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/prometheus.hpp"
#include "obs/timeseries.hpp"
#include "server/client.hpp"
#include "server/protocol_wire.hpp"

namespace ewc {
namespace {

// ---------------------------------------------------------------- codecs

consolidate::LaunchRequest sample_launch() {
  consolidate::LaunchRequest req;
  req.request_id = 7;
  req.owner = "tele-test";
  req.desc.name = "encryption_6k";
  req.desc.num_blocks = 24;
  req.desc.threads_per_block = 128;
  req.desc.mix.fp_insts = 100.0;
  req.staged_bytes = 4096;
  req.api_messages = 3;
  return req;
}

TEST(TraceContextCodec, LaunchRoundTripsTraceFields) {
  consolidate::LaunchRequest req = sample_launch();
  req.trace_id = 0xdeadbeefcafef00dull;
  req.parent_span_id = 0x1234567890abcdefull;
  const auto payload = server::encode_launch(req);
  const auto decoded = server::decode_launch(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->request_id, req.request_id);
  EXPECT_EQ(decoded->owner, req.owner);
  EXPECT_EQ(decoded->trace_id, req.trace_id);
  EXPECT_EQ(decoded->parent_span_id, req.parent_span_id);
}

TEST(TraceContextCodec, PreTraceLaunchDecodesAsNoContext) {
  // A pre-trace peer's frame is exactly today's encoding minus the two
  // trailing u64s; it must decode cleanly with trace_id 0.
  consolidate::LaunchRequest req = sample_launch();
  req.trace_id = 0xdeadbeefcafef00dull;
  req.parent_span_id = 42;
  auto payload = server::encode_launch(req);
  ASSERT_GT(payload.size(), 16u);
  payload.resize(payload.size() - 16);
  const auto decoded = server::decode_launch(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->request_id, req.request_id);
  EXPECT_EQ(decoded->trace_id, 0u);
  EXPECT_EQ(decoded->parent_span_id, 0u);
}

TEST(StatsSeriesCodec, RequestFlagsRoundTripAndAShortRequestIsHistogramsOnly) {
  server::StatsMsg m;
  m.token = 99;
  m.include_histograms = false;
  m.include_series = true;
  m.include_prometheus = true;
  const auto decoded = server::decode_stats(server::encode_stats(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->token, 99u);
  EXPECT_FALSE(decoded->include_histograms);
  EXPECT_TRUE(decoded->include_series);
  EXPECT_TRUE(decoded->include_prometheus);

  // Without either flag the request is the pre-series encoding: token and
  // include_histograms, nine bytes.
  const auto plain = server::encode_stats({7, true});
  EXPECT_EQ(plain.size(), 9u);
  const auto short_req = server::decode_stats(plain);
  ASSERT_TRUE(short_req.has_value());
  EXPECT_TRUE(short_req->include_histograms);
  EXPECT_FALSE(short_req->include_series);
  EXPECT_FALSE(short_req->include_prometheus);
}

TEST(StatsSeriesCodec, ReplyRoundTripsSeriesAndPrometheus) {
  server::StatsReplyMsg m;
  m.token = 7;
  m.uptime_micros = 1234567;
  m.counters["server.replies"] = 3.0;
  m.interval_seconds = 0.5;
  m.prometheus_text = "# TYPE ewc_rps gauge\newc_rps 12.5\n";
  obs::SeriesSnapshot rps;
  rps.points = {{1.0, 10.0}, {2.0, 12.5}};
  m.series["rps"] = rps;
  obs::SeriesSnapshot shard;
  shard.points = {{2.0, 6.25}};
  m.series["shard.1.rps"] = shard;
  const auto decoded =
      server::decode_stats_reply(server::encode_stats_reply(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->token, m.token);
  EXPECT_EQ(decoded->uptime_micros, m.uptime_micros);
  EXPECT_EQ(decoded->counters, m.counters);
  EXPECT_DOUBLE_EQ(decoded->interval_seconds, m.interval_seconds);
  EXPECT_EQ(decoded->prometheus_text, m.prometheus_text);
  ASSERT_EQ(decoded->series.size(), 2u);
  ASSERT_EQ(decoded->series.at("rps").points.size(), 2u);
  EXPECT_DOUBLE_EQ(decoded->series.at("rps").points[1].t_seconds, 2.0);
  EXPECT_DOUBLE_EQ(decoded->series.at("rps").points[1].value, 12.5);
  ASSERT_EQ(decoded->series.at("shard.1.rps").points.size(), 1u);
  EXPECT_DOUBLE_EQ(decoded->series.at("shard.1.rps").points[0].value, 6.25);
}

TEST(StatsSeriesCodec, RejectsSeriesAndPointCountsOverTheBound) {
  // A reply whose series part claims more than 2^20 series, or a series
  // claiming more than 2^20 points, is refused before any allocation.
  const auto head = server::encode_stats_reply(server::StatsReplyMsg{});
  auto with_tail = [&](auto&& write_tail) {
    net::Writer w;
    w.raw(head);
    w.f64(1.0);
    write_tail(w);
    return w.take();
  };
  constexpr std::uint32_t kOver = (1u << 20) + 1;
  EXPECT_FALSE(server::decode_stats_reply(
                   with_tail([&](net::Writer& w) { w.u32(kOver); }))
                   .has_value());
  EXPECT_FALSE(server::decode_stats_reply(with_tail([&](net::Writer& w) {
                 w.u32(1);
                 w.str("rps");
                 w.u32(kOver);
               })).has_value());
  // The same frame with an honest count decodes.
  const auto honest = server::decode_stats_reply(with_tail([&](net::Writer& w) {
    w.u32(1);
    w.str("rps");
    w.u32(1);
    w.f64(0.0);
    w.f64(2.0);
    w.str("");
  }));
  ASSERT_TRUE(honest.has_value());
  EXPECT_DOUBLE_EQ(honest->series.at("rps").points.at(0).value, 2.0);
}

// --------------------------------------------------------------- sampler

TEST(Sampler, RingKeepsNewestPointsOldestFirst) {
  obs::Sampler sampler(/*capacity=*/4);
  double gauge = 0.0;
  sampler.add_gauge("g", [&] { return gauge; });
  for (int t = 0; t < 7; ++t) {
    gauge = static_cast<double>(t);
    sampler.sample_at(static_cast<double>(t));
  }
  const auto snap = sampler.snapshot();
  ASSERT_EQ(snap.count("g"), 1u);
  const auto& points = snap.at("g").points;
  ASSERT_EQ(points.size(), 4u);  // capacity, not ticks
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_DOUBLE_EQ(points[i].t_seconds, static_cast<double>(3 + i));
    EXPECT_DOUBLE_EQ(points[i].value, static_cast<double>(3 + i));
  }
  EXPECT_DOUBLE_EQ(sampler.last_values().at("g"), 6.0);
}

TEST(Sampler, RateAndRatioDeriveFromCumulativeCounters) {
  obs::Sampler sampler(/*capacity=*/8);
  double requests = 0.0, joules = 0.0;
  sampler.add_rate("rps", [&] { return requests; });
  sampler.add_ratio("jpr", [&] { return joules; }, [&] { return requests; });
  for (int t = 0; t <= 4; ++t) {
    requests = 10.0 * t;  // +10 per 1 s tick
    joules = 25.0 * t;    // 2.5 J per request
    sampler.sample_at(static_cast<double>(t));
  }
  const auto last = sampler.last_values();
  EXPECT_DOUBLE_EQ(last.at("rps"), 10.0);
  EXPECT_DOUBLE_EQ(last.at("jpr"), 2.5);
  // The very first tick has no previous sample: both derive to 0.
  const auto snap = sampler.snapshot();
  EXPECT_DOUBLE_EQ(snap.at("rps").points.front().value, 0.0);
  EXPECT_DOUBLE_EQ(snap.at("jpr").points.front().value, 0.0);
}

TEST(Sampler, PercentileSeriesReflectsPerIntervalDistribution) {
  obs::Sampler sampler(/*capacity=*/8);
  obs::Histogram hist;
  sampler.add_histogram_percentile(
      "p95", [&] { return hist.snapshot(); }, 95.0);
  sampler.sample_at(0.0);  // baseline snapshot, value 0
  for (int i = 0; i < 100; ++i) hist.record(0.010);
  sampler.sample_at(1.0);
  for (int i = 0; i < 100; ++i) hist.record(1.0);
  sampler.sample_at(2.0);
  const auto series = sampler.snapshot();
  const auto& points = series.at("p95").points;
  ASSERT_EQ(points.size(), 3u);
  // Tick 1 saw only 10 ms samples; tick 2 only 1 s samples — per-interval,
  // not cumulative. Log buckets bound relative error by the growth factor.
  EXPECT_NEAR(points[1].value, 0.010, 0.010 * 0.25);
  EXPECT_NEAR(points[2].value, 1.0, 1.0 * 0.25);
}

// ------------------------------------------------------------ prometheus

TEST(Prometheus, SanitizeAndEscape) {
  EXPECT_EQ(obs::prom::sanitize_metric_name("server.request_latency_seconds"),
            "ewc_server_request_latency_seconds");
  EXPECT_EQ(obs::prom::sanitize_metric_name("ewc_already_ok"),
            "ewc_already_ok");
  EXPECT_EQ(obs::prom::escape_label_value("a\\b\"c\nd"),
            "a\\\\b\\\"c\\nd");
}

TEST(Prometheus, ShardScopeFoldsIntoLabelledFamily) {
  const std::string text = obs::prom::render_exposition({
      {"rps", 12.5},
      {"shard.0.rps", 5.0},
      {"shard.3.rps", 7.5},
      {"power.draw watts", 42.0},
  });
  // One family, one TYPE line, fleet + per-shard samples.
  EXPECT_NE(text.find("# TYPE ewc_rps gauge\n"), std::string::npos);
  EXPECT_EQ(text.find("# TYPE ewc_rps gauge"),
            text.rfind("# TYPE ewc_rps gauge"));
  EXPECT_NE(text.find("ewc_rps 12.5\n"), std::string::npos);
  EXPECT_NE(text.find("ewc_rps{shard=\"0\"} 5\n"), std::string::npos);
  EXPECT_NE(text.find("ewc_rps{shard=\"3\"} 7.5\n"), std::string::npos);
  // Invalid chars sanitize to underscores.
  EXPECT_NE(text.find("ewc_power_draw_watts 42\n"), std::string::npos);
}

// ------------------------------------------------------------------ e2e

/// Wait until a UNIX socket file exists (the daemons bind before printing
/// their ready line, so the file appearing means "dialable").
bool wait_for_socket(const std::string& path, double timeout_seconds = 15.0) {
  for (int i = 0; i < static_cast<int>(timeout_seconds * 100); ++i) {
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0) return true;
    ::usleep(10000);
  }
  return false;
}

TEST(TelemetryE2E, TwoShardFleetStitchesConnectedTraces) {
  const std::string dir = ::testing::TempDir();
  const std::string sock_a = dir + "/tele_shard_a.sock";
  const std::string sock_b = dir + "/tele_shard_b.sock";
  const std::string sock_r = dir + "/tele_router.sock";
  for (const auto& s : {sock_a, sock_b, sock_r}) ::unlink(s.c_str());
  const std::string trace_a = dir + "/tele_shard_a.trace.json";
  const std::string trace_b = dir + "/tele_shard_b.trace.json";
  const std::string trace_r = dir + "/tele_route.trace.json";
  const std::string trace_l = dir + "/tele_load.trace.json";
  const std::string merged = dir + "/tele_merged.json";
  const std::string intervals = dir + "/tele_intervals.jsonl";
  ::unlink(intervals.c_str());

  const pid_t shard_a = spawn_ewcsim(
      {"serve", "--socket", sock_a, "--workload", "encryption_6k=4",
       "--trace-out", trace_a},
      dir + "/tele_shard_a.log");
  const pid_t shard_b = spawn_ewcsim(
      {"serve", "--socket", sock_b, "--workload", "encryption_6k=4",
       "--trace-out", trace_b},
      dir + "/tele_shard_b.log");
  ASSERT_GT(shard_a, 0);
  ASSERT_GT(shard_b, 0);
  ASSERT_TRUE(wait_for_socket(sock_a));
  ASSERT_TRUE(wait_for_socket(sock_b));

  const pid_t router = spawn_ewcsim(
      {"route", "--listen", sock_r, "--shard", sock_a, "--shard", sock_b,
       "--trace-out", trace_r},
      dir + "/tele_route.log");
  ASSERT_GT(router, 0);
  ASSERT_TRUE(wait_for_socket(sock_r));

  const pid_t load = spawn_ewcsim(
      {"loadgen", "--socket", sock_r, "--profile", "poisson:rate=60",
       "--workload", "encryption_6k=2", "--sessions", "20", "--duration",
       "2", "--seed", "7", "--trace-out", trace_l, "--interval-jsonl",
       intervals},
      dir + "/tele_load.log");
  ASSERT_GT(load, 0);
  EXPECT_EQ(wait_exit_code(load), 0) << read_file(dir + "/tele_load.log");

  ::kill(router, SIGTERM);
  EXPECT_EQ(wait_exit_code(router), 0) << read_file(dir + "/tele_route.log");
  ::kill(shard_a, SIGTERM);
  ::kill(shard_b, SIGTERM);
  EXPECT_EQ(wait_exit_code(shard_a), 0)
      << read_file(dir + "/tele_shard_a.log");
  EXPECT_EQ(wait_exit_code(shard_b), 0)
      << read_file(dir + "/tele_shard_b.log");

  const pid_t merge = spawn_ewcsim(
      {"trace-merge", "--in", trace_l, "--in", trace_r, "--in", trace_a,
       "--in", trace_b, "--out", merged},
      dir + "/tele_merge.log");
  ASSERT_EQ(wait_exit_code(merge), 0) << read_file(dir + "/tele_merge.log");

  std::string err;
  const auto doc = obs::json::parse(read_file(merged), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // Group complete spans by trace id; a connected chain has all four hops.
  std::map<std::string, std::set<std::string>> names_by_trace;
  int flow_events = 0;
  for (const auto& ev : events->as_array()) {
    const auto* cat = ev.find("cat");
    if (cat != nullptr && cat->is_string() && cat->as_string() == "flow") {
      ++flow_events;
      continue;
    }
    const auto* ph = ev.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->as_string() != "X") continue;
    const auto* args = ev.find("args");
    if (args == nullptr) continue;
    const auto* trace = args->find("trace_id");
    if (trace == nullptr || !trace->is_string()) continue;
    names_by_trace[trace->as_string()].insert(ev.find("name")->as_string());
  }
  int roots = 0, connected = 0;
  for (const auto& [trace, names] : names_by_trace) {
    if (names.count("client.launch") == 0) continue;
    ++roots;
    if (names.count("router.forward") != 0 &&
        names.count("server.request") != 0 &&
        names.count("backend.request") != 0) {
      ++connected;
    }
  }
  ASSERT_GT(roots, 50) << "loadgen recorded too few client.launch spans";
  EXPECT_GE(static_cast<double>(connected),
            0.99 * static_cast<double>(roots))
      << connected << "/" << roots << " chains connected";
  EXPECT_GT(flow_events, 0) << "merge emitted no Perfetto flow events";

  // The interval telemetry landed: every line is one schema-tagged object
  // with the per-interval fields, and the run produced at least one row.
  std::ifstream in(intervals);
  ASSERT_TRUE(in.good()) << intervals;
  std::string line;
  int rows = 0;
  std::uint64_t completed_sum = 0;
  while (std::getline(in, line)) {
    ++rows;
    const auto row = obs::json::parse(line, &err);
    ASSERT_TRUE(row.has_value()) << "row " << rows << ": " << err;
    EXPECT_EQ(row->find("schema")->as_string(), "ewcd-bench-interval/v1");
    for (const char* key : {"t_start_s", "t_end_s", "sent", "completed",
                            "rps", "p50_s", "p95_s", "inflight"}) {
      const auto* v = row->find(key);
      ASSERT_NE(v, nullptr) << key;
      EXPECT_TRUE(v->is_number()) << key;
    }
    completed_sum +=
        static_cast<std::uint64_t>(row->find("completed")->as_number());
  }
  EXPECT_GE(rows, 2);
  EXPECT_GT(completed_sum, 0u);
}

TEST(TelemetryE2E, TopOnceServesJsonAndPrometheus) {
  const std::string dir = ::testing::TempDir();
  const std::string sock = dir + "/tele_top.sock";
  ::unlink(sock.c_str());

  const pid_t server = spawn_ewcsim(
      {"serve", "--socket", sock, "--workload", "encryption_6k=4",
       "--metrics-interval", "0.2"},
      dir + "/tele_top_serve.log");
  ASSERT_GT(server, 0);
  ASSERT_TRUE(wait_for_socket(sock));

  // Push some traffic through so the rings hold non-trivial samples.
  const pid_t load = spawn_ewcsim(
      {"loadgen", "--socket", sock, "--profile", "poisson:rate=50",
       "--workload", "encryption_6k=2", "--sessions", "10", "--duration",
       "1.5", "--seed", "3"},
      dir + "/tele_top_load.log");
  ASSERT_GT(load, 0);
  EXPECT_EQ(wait_exit_code(load), 0)
      << read_file(dir + "/tele_top_load.log");

  // The load ran for more than two intervals and nothing has asked for
  // the series yet (loadgen's kStats requests carry no series flag), so
  // every series point but the reply's own came from the reactor tick's
  // sampling.
  {
    std::string err;
    auto conn = server::ClientConnection::connect(
        sock, "tick-probe", common::Duration::from_seconds(10.0), &err);
    ASSERT_NE(conn, nullptr) << err;
    server::StatsMsg request;
    request.include_histograms = false;
    request.include_series = true;
    const auto metrics =
        conn->stats(request, common::Duration::from_seconds(10.0));
    ASSERT_TRUE(metrics.has_value());
    EXPECT_NEAR(metrics->interval_seconds, 0.2, 1e-9);
    EXPECT_TRUE(metrics->histograms.empty());
    EXPECT_TRUE(metrics->prometheus_text.empty());
    std::set<std::string> names;
    for (const auto& [name, series] : metrics->series) {
      names.insert(name);
      EXPECT_GE(series.points.size(), 3u) << name;
    }
    EXPECT_EQ(names, (std::set<std::string>{
                         "close_check_p50_seconds", "energy_joules",
                         "fill_p50_seconds", "inflight", "joules_per_request",
                         "p95_seconds", "power_watts", "requests", "rps"}));
  }

  const pid_t top_json = spawn_ewcsim(
      {"top", "--socket", sock, "--once", "--json"},
      dir + "/tele_top_json.log");
  ASSERT_EQ(wait_exit_code(top_json), 0)
      << read_file(dir + "/tele_top_json.log");
  std::string err;
  const auto doc =
      obs::json::parse(read_file(dir + "/tele_top_json.log"), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->find("schema")->as_string(), "ewcd-top/v1");
  EXPECT_NEAR(doc->find("interval_seconds")->as_number(), 0.2, 1e-9);
  const auto* last = doc->find("last");
  ASSERT_NE(last, nullptr);
  for (const char* key : {"rps", "p95_seconds", "fill_p50_seconds",
                          "power_watts", "joules_per_request", "inflight",
                          "energy_joules", "requests"}) {
    ASSERT_NE(last->find(key), nullptr) << key;
  }
  EXPECT_GT(last->find("requests")->as_number(), 0.0);
  EXPECT_GT(last->find("energy_joules")->as_number(), 0.0);

  const pid_t top_prom = spawn_ewcsim(
      {"top", "--socket", sock, "--once", "--prometheus"},
      dir + "/tele_top_prom.log");
  ASSERT_EQ(wait_exit_code(top_prom), 0)
      << read_file(dir + "/tele_top_prom.log");
  const std::string prom = read_file(dir + "/tele_top_prom.log");
  EXPECT_NE(prom.find("# TYPE ewc_rps gauge\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find("ewc_power_watts"), std::string::npos);
  EXPECT_NE(prom.find("ewc_server_replies"), std::string::npos);

  ::kill(server, SIGTERM);
  EXPECT_EQ(wait_exit_code(server), 0)
      << read_file(dir + "/tele_top_serve.log");
}

/// The sorted names `endpoint` serves in one kStats reply with every part
/// requested: counters, histograms, series, and the Prometheus `# TYPE`
/// families. Against a fleet it also checks that the plain-name energy is
/// the sum of the shards', bit for bit.
std::string served_names(const std::string& endpoint) {
  std::string err;
  auto conn = server::ClientConnection::connect(
      endpoint, "names-fixture", common::Duration::from_seconds(10.0), &err);
  if (conn == nullptr) return "connect failed: " + err + "\n";
  server::StatsMsg request;
  request.include_series = true;
  request.include_prometheus = true;
  const auto stats = conn->stats(request, common::Duration::from_seconds(10.0));
  if (!stats.has_value()) return "no reply\n";
  const auto& c = stats->counters;
  if (c.contains("shard.1.backend.total_energy_joules")) {
    EXPECT_GT(c.at("backend.total_energy_joules"), 0.0);
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(c.at("backend.total_energy_joules")),
        std::bit_cast<std::uint64_t>(
            c.at("shard.0.backend.total_energy_joules") +
            c.at("shard.1.backend.total_energy_joules")));
  }
  std::ostringstream out;
  out << "[stats.counters]\n";
  for (const auto& [name, value] : c) out << name << "\n";
  out << "[stats.histograms]\n";
  for (const auto& [name, h] : stats->histograms) out << name << "\n";
  out << "[stats.series]\n";
  for (const auto& [name, series] : stats->series) out << name << "\n";
  out << "[prometheus.families]\n";
  std::istringstream prom(stats->prometheus_text);
  std::set<std::string> families;
  for (std::string line; std::getline(prom, line);) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    families.insert(line.substr(7, line.find(' ', 7) - 7));
  }
  for (const auto& f : families) out << f << "\n";
  return out.str();
}

/// Start `ewcsim <args...>` serving `sock` (log at `sock`.log) and wait
/// until it is dialable.
pid_t start_daemon(const std::vector<std::string>& args,
                   const std::string& sock) {
  ::unlink(sock.c_str());
  const pid_t pid = spawn_ewcsim(args, sock + ".log");
  EXPECT_GT(pid, 0);
  EXPECT_TRUE(wait_for_socket(sock)) << sock;
  return pid;
}

/// SIGTERM a daemon from start_daemon and expect a clean drain.
void stop_daemon(pid_t pid, const std::string& sock) {
  ::kill(pid, SIGTERM);
  EXPECT_EQ(wait_exit_code(pid), 0) << read_file(sock + ".log");
}

/// One fixed client run: four encryption_6k launches on one connection,
/// flushed.
void run_fixed_client(const std::string& endpoint) {
  const std::string log = endpoint + ".client.log";
  const pid_t client = spawn_ewcsim({"client", "--socket", endpoint,
                                     "--workload", "encryption_6k=4",
                                     "--flush"},
                                    log);
  ASSERT_GT(client, 0);
  EXPECT_EQ(wait_exit_code(client), 0) << read_file(log);
}

// The names a shard and a two-shard router serve over kStats are
// an interface: dashboards, `ewcsim stats`, `ewcsim top` and the benchmark
// harness read them. They are pinned in tests/data/telemetry_names.txt.
TEST(TelemetryE2E, ServedNamesMatchFixture) {
  const std::string dir = ::testing::TempDir();
  const std::string single = dir + "/names_single.sock";
  const std::string shard_a = dir + "/names_shard_a.sock";
  const std::string shard_b = dir + "/names_shard_b.sock";
  const std::string router = dir + "/names_router.sock";

  const pid_t single_pid = start_daemon(
      {"serve", "--socket", single, "--workload", "encryption_6k=4"}, single);
  run_fixed_client(single);
  std::string actual = "## ewcsim serve\n" + served_names(single);
  stop_daemon(single_pid, single);

  const pid_t a_pid = start_daemon(
      {"serve", "--socket", shard_a, "--workload", "encryption_6k=4"},
      shard_a);
  const pid_t b_pid = start_daemon(
      {"serve", "--socket", shard_b, "--workload", "encryption_6k=4"},
      shard_b);
  const pid_t router_pid = start_daemon(
      {"route", "--listen", router, "--shard", shard_a, "--shard", shard_b},
      router);
  run_fixed_client(router);
  actual += "## ewcsim route (two shards)\n" + served_names(router);
  stop_daemon(router_pid, router);
  stop_daemon(a_pid, shard_a);
  stop_daemon(b_pid, shard_b);

  const std::string actual_path = dir + "/telemetry_names.actual.txt";
  std::ofstream(actual_path) << actual;
  EXPECT_EQ(read_file(TELEMETRY_NAMES_FIXTURE), actual)
      << "served names changed; this run's list is in " << actual_path;
}

/// Hello on a raw socket to `endpoint`, then one frame of the retired type
/// 11 (the old time-series request). Returns the kError message that comes
/// back, or a description of whatever else happened.
std::string answer_to_frame_11(const std::string& endpoint) {
  using net::Deadline;
  const auto deadline = Deadline::after(common::Duration::from_seconds(10.0));
  std::string err;
  auto sock = net::connect_endpoint(endpoint, deadline, &err);
  if (!sock.has_value()) return "connect failed: " + err;
  net::Frame frame;
  if (net::write_frame(*sock,
                       static_cast<std::uint16_t>(server::MsgType::kHello),
                       server::encode_hello({}), deadline,
                       &err) != net::IoStatus::kOk ||
      net::read_frame(*sock, &frame, deadline, &err) != net::IoStatus::kOk ||
      frame.type != static_cast<std::uint16_t>(server::MsgType::kHelloOk)) {
    return "handshake failed: " + err;
  }
  net::Writer w;
  w.u64(1);
  w.u8(0);
  if (net::write_frame(*sock, 11, w.take(), deadline, &err) !=
          net::IoStatus::kOk ||
      net::read_frame(*sock, &frame, deadline, &err) != net::IoStatus::kOk) {
    return "no answer: " + err;
  }
  if (frame.type != static_cast<std::uint16_t>(server::MsgType::kError)) {
    return "answered with type " + std::to_string(frame.type);
  }
  const auto msg = server::decode_error(frame.payload);
  return msg.has_value() ? msg->message : "malformed kError";
}

double protocol_errors(const std::string& endpoint) {
  std::string err;
  auto conn = server::ClientConnection::connect(
      endpoint, "frame-11-probe", common::Duration::from_seconds(10.0), &err);
  if (conn == nullptr) return -1.0;
  const auto stats =
      conn->stats(/*include_histograms=*/false,
                  common::Duration::from_seconds(10.0));
  return stats.has_value() ? stats->counters.at("server.protocol_errors")
                           : -1.0;
}

// Frame types 11/12 are retired: a shard treats 11 as any unknown type
// (kError, one protocol error, close), and a router forwards it to the
// shard like any other unintercepted frame, so the shard's kError comes
// back through it.
TEST(TelemetryE2E, RetiredFrameElevenIsAnUnexpectedType) {
  const std::string dir = ::testing::TempDir();
  const std::string shard = dir + "/frame11_shard.sock";
  const std::string router = dir + "/frame11_router.sock";
  const pid_t shard_pid = start_daemon(
      {"serve", "--socket", shard, "--workload", "encryption_6k=4"}, shard);
  EXPECT_EQ(answer_to_frame_11(shard), "unexpected message type 11");
  EXPECT_EQ(protocol_errors(shard), 1.0);

  const pid_t router_pid = start_daemon(
      {"route", "--listen", router, "--shard", shard}, router);
  EXPECT_EQ(answer_to_frame_11(router), "unexpected message type 11");
  EXPECT_EQ(protocol_errors(shard), 2.0);
  stop_daemon(router_pid, router);
  stop_daemon(shard_pid, shard);
}

}  // namespace
}  // namespace ewc
