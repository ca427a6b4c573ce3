// Observability layer: histogram bucket math, tracer ring semantics, the
// Chrome-trace exporter's schema, the metric registry, and the STATS codec.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/jsonl.hpp"
#include "obs/prometheus.hpp"
#include "obs/registry.hpp"
#include "obs/shard_scope.hpp"
#include "obs/tracer.hpp"
#include "server/protocol_wire.hpp"

namespace ewc {
namespace {

// ---- histogram bucket math ----

TEST(HistogramParams, BucketEdgesAreGeometric) {
  obs::HistogramParams p;
  p.min_value = 1.0;
  p.growth = 2.0;
  p.buckets = 8;
  EXPECT_DOUBLE_EQ(p.bucket_lower(0), 1.0);
  EXPECT_DOUBLE_EQ(p.bucket_lower(3), 8.0);
  EXPECT_EQ(p.bucket_index(1.0), 0);
  EXPECT_EQ(p.bucket_index(1.99), 0);
  EXPECT_EQ(p.bucket_index(2.0), 1);
  // Below min_value clamps into bucket 0; at/above the top edge overflows.
  EXPECT_EQ(p.bucket_index(0.0), 0);
  EXPECT_EQ(p.bucket_index(-5.0), 0);
  EXPECT_EQ(p.bucket_index(255.9), 7);
  EXPECT_EQ(p.bucket_index(256.0), 8);
  EXPECT_EQ(p.bucket_index(1e30), 8);
}

TEST(Histogram, RecordAndSnapshot) {
  obs::HistogramParams p;
  p.min_value = 1.0;
  p.growth = 2.0;
  p.buckets = 8;
  obs::Histogram h(p);
  h.record(1.5);
  h.record(3.0);
  h.record(3.5);
  const auto s = h.snapshot();
  EXPECT_EQ(s.total, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 8.0);
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.counts[1], 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 8.0 / 3.0);
}

TEST(Histogram, PercentileInterpolatesInsideBucket) {
  obs::HistogramParams p;
  p.min_value = 1.0;
  p.growth = 2.0;
  p.buckets = 8;
  obs::Histogram h(p);
  // 100 values in bucket [2, 4).
  for (int i = 0; i < 100; ++i) h.record(3.0);
  const auto s = h.snapshot();
  // Every percentile lands inside the covering bucket's edges.
  for (double q : {1.0, 50.0, 99.0}) {
    const double v = s.percentile(q);
    EXPECT_GE(v, 2.0) << "p" << q;
    EXPECT_LE(v, 4.0) << "p" << q;
  }
  // The percentile is monotone in q.
  EXPECT_LE(s.percentile(10), s.percentile(90));
}

TEST(Histogram, PercentileAcrossBuckets) {
  obs::HistogramParams p;
  p.min_value = 1.0;
  p.growth = 2.0;
  p.buckets = 8;
  obs::Histogram h(p);
  for (int i = 0; i < 90; ++i) h.record(1.5);   // bucket [1, 2)
  for (int i = 0; i < 10; ++i) h.record(100.0); // bucket [64, 128)
  const auto s = h.snapshot();
  EXPECT_LT(s.percentile(50), 2.0);
  EXPECT_GE(s.percentile(95), 64.0);
  EXPECT_LE(s.percentile(95), 128.0);
}

TEST(Histogram, OverflowBucketReportsTopEdge) {
  obs::HistogramParams p;
  p.min_value = 1.0;
  p.growth = 2.0;
  p.buckets = 4;  // top edge 16
  obs::Histogram h(p);
  h.record(1e9);
  const auto s = h.snapshot();
  EXPECT_EQ(s.counts.back(), 1u);
  // The histogram cannot see beyond its top edge.
  EXPECT_DOUBLE_EQ(s.percentile(99), p.bucket_lower(p.buckets));
}

TEST(Histogram, MergeAddsCountsAndRejectsMismatchedGeometry) {
  obs::HistogramParams p;
  p.min_value = 1.0;
  p.growth = 2.0;
  p.buckets = 8;
  obs::Histogram a(p), b(p);
  a.record(1.5);
  b.record(3.0);
  b.record(1e9);
  auto sa = a.snapshot();
  const auto sb = b.snapshot();
  sa.merge(sb);
  EXPECT_EQ(sa.total, 3u);
  EXPECT_DOUBLE_EQ(sa.sum, 1.5 + 3.0 + 1e9);
  EXPECT_EQ(sa.counts[0], 1u);
  EXPECT_EQ(sa.counts[1], 1u);
  EXPECT_EQ(sa.counts.back(), 1u);

  obs::HistogramParams q = p;
  q.buckets = 4;
  obs::Histogram c(q);
  auto sc = c.snapshot();
  EXPECT_THROW(sc.merge(sb), std::invalid_argument);
}

TEST(Histogram, EmptyPercentileIsZero) {
  obs::Histogram h;
  EXPECT_TRUE(h.snapshot().empty());
  EXPECT_DOUBLE_EQ(h.snapshot().percentile(50), 0.0);
}

// The edge cases documented on HistogramSnapshot::percentile, pinned so a
// refactor cannot silently change what p=0/p=100/NaN report (the bench
// compare gate reads these values straight out of BENCH datapoints).

TEST(Histogram, EmptySnapshotEveryPercentileIsZero) {
  obs::Histogram h;
  const auto s = h.snapshot();
  for (double q : {0.0, 0.001, 50.0, 99.999, 100.0}) {
    EXPECT_DOUBLE_EQ(s.percentile(q), 0.0) << "p" << q;
  }
  // Out-of-range and NaN on an empty snapshot are still zero.
  EXPECT_DOUBLE_EQ(s.percentile(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(101.0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(std::nan("")), 0.0);
}

TEST(Histogram, PercentileZeroIsFirstOccupiedLowerEdge) {
  obs::HistogramParams p;
  p.min_value = 1.0;
  p.growth = 2.0;
  p.buckets = 8;
  obs::Histogram h(p);
  h.record(3.0);    // bucket [2, 4)
  h.record(100.0);  // bucket [64, 128)
  const auto s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 2.0);
  // Below-range p clamps to 0, same answer.
  EXPECT_DOUBLE_EQ(s.percentile(-50.0), 2.0);
}

TEST(Histogram, PercentileHundredIsLastOccupiedUpperEdge) {
  obs::HistogramParams p;
  p.min_value = 1.0;
  p.growth = 2.0;
  p.buckets = 8;
  obs::Histogram h(p);
  h.record(3.0);    // bucket [2, 4)
  h.record(100.0);  // bucket [64, 128)
  const auto s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 128.0);
  // Above-range p clamps to 100, same answer.
  EXPECT_DOUBLE_EQ(s.percentile(250.0), 128.0);
}

TEST(Histogram, PercentileNanIsZeroNotOverflowThreshold) {
  obs::HistogramParams p;
  p.min_value = 1.0;
  p.growth = 2.0;
  p.buckets = 8;
  obs::Histogram h(p);
  for (int i = 0; i < 100; ++i) h.record(3.0);
  // Before the NaN guard this fell through the clamp, made the target rank
  // NaN, failed every bucket comparison, and reported the overflow
  // threshold — a wildly wrong answer for a histogram whose mass sits in
  // [2, 4).
  EXPECT_DOUBLE_EQ(h.snapshot().percentile(std::nan("")), 0.0);
}

TEST(Histogram, AllOverflowEveryPercentileIsThreshold) {
  obs::HistogramParams p;
  p.min_value = 1.0;
  p.growth = 2.0;
  p.buckets = 4;  // top edge 16
  obs::Histogram h(p);
  for (int i = 0; i < 10; ++i) h.record(1e9);
  const auto s = h.snapshot();
  const double threshold = p.bucket_lower(p.buckets);
  for (double q : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(s.percentile(q), threshold) << "p" << q;
  }
}

// ---- atomic JSONL append ----

// append_jsonl_line issues line+'\n' as ONE write(2) on an O_APPEND fd, the
// POSIX recipe for tear-free concurrent appends. Bench processes and CI
// jobs append datapoints to the same BENCH file in parallel, so interleaved
// or truncated lines would silently corrupt the trajectory.
TEST(JsonlAppend, ConcurrentAppendsNeverTearLines) {
  const std::string path = ::testing::TempDir() + "/jsonl_append_race.jsonl";
  ::unlink(path.c_str());
  constexpr int kThreads = 8;
  constexpr int kLines = 200;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kLines; ++i) {
        // Distinct lengths per writer so an interleave cannot reassemble
        // into a valid line by accident.
        const std::string line = "{\"writer\":" + std::to_string(t) +
                                 ",\"seq\":" + std::to_string(i) +
                                 ",\"pad\":\"" +
                                 std::string(static_cast<std::size_t>(t) * 7,
                                             'x') +
                                 "\"}";
        std::string err;
        ASSERT_TRUE(obs::append_jsonl_line(path, line, &err)) << err;
      }
    });
  }
  for (auto& w : writers) w.join();

  std::ifstream in(path);
  std::string line;
  int total = 0;
  std::map<int, int> per_writer;
  while (std::getline(in, line)) {
    ++total;
    std::string err;
    const auto doc = obs::json::parse(line, &err);
    ASSERT_TRUE(doc.has_value()) << "line " << total << ": " << err;
    ASSERT_TRUE(doc->is_object());
    per_writer[static_cast<int>(doc->find("writer")->as_number())]++;
  }
  EXPECT_EQ(total, kThreads * kLines);
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(per_writer[t], kLines) << t;
}

TEST(JsonlAppend, ReportsUnwritableTarget) {
  std::string err;
  EXPECT_FALSE(
      obs::append_jsonl_line("/nonexistent-dir/x.jsonl", "{}", &err));
  EXPECT_FALSE(err.empty());
}

TEST(Registry, HandlesSurviveClearAndSnapshotHoldsBothKinds) {
  auto& reg = obs::Registry::instance();
  const obs::Counter counter = reg.counter("obs_test.counter");
  obs::Histogram* hist = reg.histogram("obs_test.histogram");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(reg.histogram("obs_test.histogram"), hist);
  counter.add(2.0);
  reg.counter("obs_test.counter").inc();  // a second lookup, the same cell
  EXPECT_DOUBLE_EQ(counter.value(), 3.0);
  hist->record(0.5);

  reg.clear();
  EXPECT_DOUBLE_EQ(counter.value(), 0.0);
  EXPECT_TRUE(hist->snapshot().empty());
  counter.inc();  // zeroed in place, not destroyed: handles still write
  hist->record(0.25);
  const obs::RegistrySnapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("obs_test.counter"), 1.0);
  EXPECT_EQ(snap.histograms.at("obs_test.histogram").total, 1u);
}

TEST(Registry, DefaultCounterIsANoOpSink) {
  const obs::Counter null_handle;
  null_handle.inc();
  null_handle.set(5.0);
  EXPECT_DOUBLE_EQ(null_handle.value(), 0.0);
}

// ---- tracer ring semantics ----

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().set_enabled(true);
  }
  void TearDown() override {
    obs::Tracer::instance().set_enabled(false);
    obs::Tracer::instance().clear();
  }
};

TEST_F(TracerTest, SpansInheritRequestScope) {
  {
    obs::RequestScope scope(42);
    obs::ScopedSpan span("obs_test.outer");
    obs::instant("obs_test.ping");
  }
  obs::instant("obs_test.outside");
  const auto events = obs::Tracer::instance().collect();
  ASSERT_EQ(events.size(), 3u);
  std::uint64_t outer = 0, ping = 0, outside = 99;
  for (const auto& ev : events) {
    if (ev.name == "obs_test.outer") outer = ev.request_id;
    if (ev.name == "obs_test.ping") ping = ev.request_id;
    if (ev.name == "obs_test.outside") outside = ev.request_id;
  }
  EXPECT_EQ(outer, 42u);
  EXPECT_EQ(ping, 42u);
  EXPECT_EQ(outside, 0u);
}

TEST_F(TracerTest, RingWrapKeepsNewestAndCountsLoss) {
  // A dedicated thread gets a fresh ring at the minimum capacity (16).
  obs::Tracer::instance().set_thread_capacity(16);
  std::thread t([] {
    for (int i = 0; i < 40; ++i) {
      obs::instant("obs_test.e" + std::to_string(i));
    }
  });
  t.join();
  obs::Tracer::instance().set_thread_capacity(32768);
  const auto events = obs::Tracer::instance().collect();
  ASSERT_EQ(events.size(), 16u);
  // The 16 survivors are the newest 16, still in order.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].name,
              "obs_test.e" + std::to_string(24 + i));
  }
  EXPECT_EQ(obs::Tracer::instance().wrapped(), 24u);
}

TEST_F(TracerTest, DisabledTracerRecordsNothing) {
  obs::Tracer::instance().set_enabled(false);
  {
    obs::ScopedSpan span("obs_test.dropped");
    EXPECT_FALSE(span.active());
  }
  obs::instant("obs_test.dropped_instant");
  EXPECT_TRUE(obs::Tracer::instance().collect().empty());
}

TEST_F(TracerTest, SimEventsUseSimClockBase) {
  {
    obs::SimClockScope base(10.0);
    obs::sim_span("obs_test.sim", 1.0, 2.0, 3);
  }
  const auto events = obs::Tracer::instance().collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].clock, obs::Clock::kSim);
  EXPECT_DOUBLE_EQ(events[0].ts_us, 11.0 * 1e6);
  EXPECT_DOUBLE_EQ(events[0].dur_us, 2.0 * 1e6);
  EXPECT_EQ(events[0].lane, 3u);
}

// ---- Chrome-trace export schema ----

TEST_F(TracerTest, ChromeTraceSchemaIsValid) {
  {
    obs::RequestScope scope(7);
    obs::ScopedSpan span("obs_test.request");
    span.set_args("\"kernel\":\"aes\"");
  }
  obs::instant("obs_test.marker");
  obs::sim_span("obs_test.batch", 0.0, 1.5, 0);

  std::ostringstream out;
  obs::ExportOptions options;
  options.process_name = "obs_test";
  options.pid = 1234;
  obs::write_chrome_trace(out, obs::Tracer::instance().collect(), options);

  std::string error;
  const auto doc = obs::json::parse(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  bool saw_span = false, saw_instant = false, saw_sim = false;
  for (const auto& ev : events->as_array()) {
    ASSERT_TRUE(ev.is_object());
    // Every event carries the Chrome-trace required keys.
    for (const char* key : {"ph", "ts", "pid", "tid", "name"}) {
      ASSERT_NE(ev.find(key), nullptr) << "missing " << key;
    }
    EXPECT_TRUE(ev.find("ph")->is_string());
    EXPECT_TRUE(ev.find("ts")->is_number());
    EXPECT_TRUE(ev.find("pid")->is_number());
    EXPECT_TRUE(ev.find("tid")->is_number());
    EXPECT_TRUE(ev.find("name")->is_string());
    const std::string& ph = ev.find("ph")->as_string();
    const std::string& name = ev.find("name")->as_string();
    if (name == "obs_test.request") {
      saw_span = true;
      EXPECT_EQ(ph, "X");
      ASSERT_NE(ev.find("dur"), nullptr);
      EXPECT_EQ(static_cast<int>(ev.find("pid")->as_number()), 1234);
      const auto* args = ev.find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->find("request_id"), nullptr);
      EXPECT_DOUBLE_EQ(args->find("request_id")->as_number(), 7.0);
      ASSERT_NE(args->find("kernel"), nullptr);
      EXPECT_EQ(args->find("kernel")->as_string(), "aes");
    } else if (name == "obs_test.marker") {
      saw_instant = true;
      EXPECT_EQ(ph, "i");
    } else if (name == "obs_test.batch") {
      saw_sim = true;
      EXPECT_EQ(ph, "X");
      // Simulated-clock events live under the synthetic pid.
      EXPECT_EQ(static_cast<int>(ev.find("pid")->as_number()),
                1234 + options.sim_pid_offset);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_sim);
}

TEST_F(TracerTest, ExportAndMergeFiles) {
  obs::instant("obs_test.a");
  std::string error;
  const std::string dir = ::testing::TempDir();
  const std::string file_a = dir + "/obs_a.json";
  ASSERT_TRUE(obs::export_chrome_trace_file(file_a, "proc_a", &error))
      << error;
  obs::Tracer::instance().clear();
  obs::instant("obs_test.b");
  const std::string file_b = dir + "/obs_b.json";
  ASSERT_TRUE(obs::export_chrome_trace_file(file_b, "proc_b", &error))
      << error;

  const std::string merged = dir + "/obs_merged.json";
  ASSERT_TRUE(obs::merge_chrome_trace_files({file_a, file_b}, merged, &error))
      << error;
  const auto doc = obs::json::parse_file(merged, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  int named = 0;
  for (const auto& ev : doc->find("traceEvents")->as_array()) {
    const std::string& name = ev.find("name")->as_string();
    if (name == "obs_test.a" || name == "obs_test.b") ++named;
  }
  EXPECT_EQ(named, 2);
}

TEST_F(TracerTest, TopSpansReportGroupsByName) {
  for (int i = 0; i < 3; ++i) obs::ScopedSpan span("obs_test.hot");
  const auto report =
      obs::top_spans_report(obs::Tracer::instance().collect(), 5);
  EXPECT_NE(report.find("obs_test.hot"), std::string::npos);
  EXPECT_NE(report.find("3"), std::string::npos);
}

// ---- STATS codec ----

// ---- shard scope ----

TEST(ShardScope, ParsesWhatShardPrefixWrites) {
  EXPECT_EQ(obs::shard_prefix(0), "shard.0.");
  EXPECT_EQ(obs::shard_prefix(12), "shard.12.");
  const auto scoped = obs::parse_shard_scope(obs::shard_prefix(12) + "rps");
  ASSERT_TRUE(scoped.has_value());
  EXPECT_EQ(scoped->shard, 12);
  EXPECT_EQ(scoped->name, "rps");
  const auto nested = obs::parse_shard_scope("shard.3.server.replies");
  ASSERT_TRUE(nested.has_value());
  EXPECT_EQ(nested->shard, 3);
  EXPECT_EQ(nested->name, "server.replies");
  const auto max = obs::parse_shard_scope("shard.2147483647.x");
  ASSERT_TRUE(max.has_value());
  EXPECT_EQ(max->shard, 2147483647);
}

TEST(ShardScope, AnythingElseIsAPlainName) {
  for (const char* name :
       {"server.replies", "shard.", "shard.3", "shard.3.", "shard..rps",
        "shard.x.rps", "shard.3x.rps", "shard.-1.rps", "shard.+1.rps",
        "shard.07.rps", "shard.2147483648.rps",
        "shard.99999999999.server.replies", "shards.1.rps"}) {
    EXPECT_FALSE(obs::parse_shard_scope(name).has_value()) << name;
  }
}

TEST(ShardScope, PrometheusLabelsOnlyAParsedScope) {
  const std::string text = obs::prom::render_exposition({
      {"shard.99999999999.server.replies", 1.0},
      {"shard.0.server.replies", 2.0},
  });
  EXPECT_NE(text.find("ewc_server_replies{shard=\"0\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ewc_shard_99999999999_server_replies 1\n"),
            std::string::npos)
      << text;
}

TEST(StatsCodec, RoundTrip) {
  server::StatsMsg req{77, false};
  const auto decoded_req = server::decode_stats(server::encode_stats(req));
  ASSERT_TRUE(decoded_req.has_value());
  EXPECT_EQ(decoded_req->token, 77u);
  EXPECT_FALSE(decoded_req->include_histograms);

  server::StatsReplyMsg reply;
  reply.token = 77;
  reply.uptime_micros = 123456;
  reply.counters["server.requests"] = 9.0;
  reply.counters["server.rejected"] = 1.0;
  obs::Histogram h;
  h.record(0.01);
  h.record(0.02);
  reply.histograms["server.request_latency_seconds"] = h.snapshot();

  const auto decoded =
      server::decode_stats_reply(server::encode_stats_reply(reply));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->token, 77u);
  EXPECT_EQ(decoded->uptime_micros, 123456u);
  EXPECT_EQ(decoded->counters, reply.counters);
  ASSERT_EQ(decoded->histograms.size(), 1u);
  const auto& hd = decoded->histograms.at("server.request_latency_seconds");
  EXPECT_EQ(hd.total, 2u);
  EXPECT_DOUBLE_EQ(hd.sum, 0.03);
  EXPECT_EQ(hd.params, obs::HistogramParams{});
  EXPECT_EQ(hd.counts, reply.histograms.at("server.request_latency_seconds")
                           .counts);
}

TEST(StatsCodec, RejectsMalformedReply) {
  server::StatsReplyMsg reply;
  reply.token = 1;
  obs::Histogram h;
  h.record(1.0);
  reply.histograms["h"] = h.snapshot();
  auto bytes = server::encode_stats_reply(reply);
  // Truncation and trailing garbage must both be rejected.
  std::vector<std::byte> truncated(bytes.begin(), bytes.end() - 4);
  EXPECT_FALSE(server::decode_stats_reply(truncated).has_value());
  bytes.push_back(std::byte{0});
  EXPECT_FALSE(server::decode_stats_reply(bytes).has_value());
  EXPECT_FALSE(server::decode_stats_reply({}).has_value());
  // Bucket geometry no histogram can be built with is rejected at the
  // wire, before HistogramSnapshot::merge could throw on it in the router.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const obs::HistogramParams p : std::vector<obs::HistogramParams>{
           {nan, 1.19, 160}, {0.0, 1.19, 160}, {-1e-6, 1.19, 160},
           {inf, 1.19, 160}, {1e-6, nan, 160}, {1e-6, 1.0, 160},
           {1e-6, 0.5, 160}, {1e-6, inf, 160}, {1e-6, 1.19, 0}}) {
    EXPECT_FALSE(p.valid());
    EXPECT_THROW(obs::Histogram{p}, std::invalid_argument);
    server::StatsReplyMsg odd;
    obs::HistogramSnapshot s;
    s.params = p;
    s.counts.assign(static_cast<std::size_t>(p.buckets) + 1, 0);
    odd.histograms["h"] = s;
    EXPECT_FALSE(server::decode_stats_reply(server::encode_stats_reply(odd))
                     .has_value())
        << p.min_value << " " << p.growth << " " << p.buckets;
  }
}

}  // namespace
}  // namespace ewc
