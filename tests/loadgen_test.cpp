// Loadgen harness units: the arrival-profile grammar, Lewis-thinning
// arrival generation, schedule determinism (the property the BENCH
// trajectory's comparability rests on), and the ewcd-bench/v1 datapoint
// emit/compare path. The end-to-end run against a real daemon lives in
// loadgen_e2e_test.cpp (ctest label "load").
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/rng.hpp"
#include "loadgen/loadgen.hpp"
#include "loadgen/profile.hpp"
#include "loadgen/trajectory.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "workloads/paper_configs.hpp"

namespace ewc {
namespace {

// ---- profile grammar ----

TEST(ArrivalProfile, ParsesPoissonAndCanonicalizes) {
  std::string err;
  const auto p = loadgen::ArrivalProfile::parse("poisson:rate=250", &err);
  ASSERT_TRUE(p.has_value()) << err;
  EXPECT_EQ(p->kind, loadgen::ArrivalProfile::Kind::kPoisson);
  EXPECT_DOUBLE_EQ(p->rate, 250.0);
  EXPECT_EQ(p->canonical(), "poisson:rate=250");
  // Canonical form is stable under re-parsing.
  const auto again = loadgen::ArrivalProfile::parse(p->canonical(), &err);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->canonical(), p->canonical());
}

TEST(ArrivalProfile, ParsesDiurnalAndBursty) {
  std::string err;
  const auto d = loadgen::ArrivalProfile::parse(
      "diurnal:rate=100:period=60:depth=0.5", &err);
  ASSERT_TRUE(d.has_value()) << err;
  EXPECT_EQ(d->canonical(), "diurnal:rate=100:period=60:depth=0.5");

  const auto b = loadgen::ArrivalProfile::parse(
      "bursty:rate=100:period=10:burst=4:duty=0.2", &err);
  ASSERT_TRUE(b.has_value()) << err;
  EXPECT_EQ(b->canonical(), "bursty:rate=100:period=10:burst=4:duty=0.2");
  // Canonical drops keys the kind does not use and fixes the order.
  const auto shuffled = loadgen::ArrivalProfile::parse(
      "bursty:duty=0.2:rate=100:burst=4:period=10", &err);
  ASSERT_TRUE(shuffled.has_value());
  EXPECT_EQ(shuffled->canonical(), b->canonical());
}

TEST(ArrivalProfile, RejectsBadInput) {
  std::string err;
  EXPECT_FALSE(loadgen::ArrivalProfile::parse("", &err).has_value());
  EXPECT_FALSE(loadgen::ArrivalProfile::parse("uniform:rate=5", &err)
                   .has_value());
  EXPECT_FALSE(loadgen::ArrivalProfile::parse("poisson:rate", &err)
                   .has_value());
  EXPECT_FALSE(loadgen::ArrivalProfile::parse("poisson:rate=2x", &err)
                   .has_value());
  EXPECT_FALSE(loadgen::ArrivalProfile::parse("poisson:rate=0", &err)
                   .has_value());
  EXPECT_FALSE(loadgen::ArrivalProfile::parse("poisson:rate=-3", &err)
                   .has_value());
  EXPECT_FALSE(loadgen::ArrivalProfile::parse("poisson:bogus=1", &err)
                   .has_value());
  EXPECT_FALSE(
      loadgen::ArrivalProfile::parse("diurnal:rate=10:depth=1", &err)
          .has_value());
  EXPECT_FALSE(
      loadgen::ArrivalProfile::parse("diurnal:rate=10:period=0", &err)
          .has_value());
  EXPECT_FALSE(
      loadgen::ArrivalProfile::parse("bursty:rate=10:duty=1", &err)
          .has_value());
  // A burst carrying more than the whole mean leaves the off window with a
  // negative rate.
  EXPECT_FALSE(loadgen::ArrivalProfile::parse(
                   "bursty:rate=10:burst=8:duty=0.2", &err)
                   .has_value());
  EXPECT_NE(err.find("burst*duty"), std::string::npos);
}

TEST(ArrivalProfile, RateAtMatchesShapeAndPreservesMean) {
  std::string err;
  const auto d = loadgen::ArrivalProfile::parse(
      "diurnal:rate=100:period=40:depth=0.5", &err);
  ASSERT_TRUE(d.has_value());
  EXPECT_DOUBLE_EQ(d->rate_at(0.0), 100.0);          // sin(0) = 0
  EXPECT_DOUBLE_EQ(d->rate_at(10.0), 150.0);         // peak at period/4
  EXPECT_DOUBLE_EQ(d->rate_at(30.0), 50.0);          // trough at 3/4
  EXPECT_DOUBLE_EQ(d->peak_rate(), 150.0);

  const auto b = loadgen::ArrivalProfile::parse(
      "bursty:rate=100:period=10:burst=4:duty=0.2", &err);
  ASSERT_TRUE(b.has_value());
  EXPECT_DOUBLE_EQ(b->rate_at(1.0), 400.0);  // inside the 2s burst window
  EXPECT_DOUBLE_EQ(b->rate_at(5.0), 25.0);   // off window
  EXPECT_DOUBLE_EQ(b->peak_rate(), 400.0);
  // duty*burst*R + (1-duty)*off == R: the profile really has mean `rate`.
  EXPECT_NEAR(0.2 * b->rate_at(1.0) + 0.8 * b->rate_at(5.0), 100.0, 1e-9);

  // peak_rate is a true envelope (what Lewis thinning requires).
  for (const auto& p : {*d, *b}) {
    for (double t = 0.0; t < 80.0; t += 0.37) {
      EXPECT_LE(p.rate_at(t), p.peak_rate() + 1e-9) << "t=" << t;
    }
  }
}

// ---- arrival generation ----

TEST(GenerateArrivals, DeterministicPerSeedSortedAndBounded) {
  std::string err;
  const auto p = loadgen::ArrivalProfile::parse(
      "diurnal:rate=200:period=5:depth=0.8", &err);
  ASSERT_TRUE(p.has_value());
  common::Rng a(99), b(99), c(100);
  const auto first = loadgen::generate_arrivals(*p, 10.0, a);
  const auto second = loadgen::generate_arrivals(*p, 10.0, b);
  const auto other_seed = loadgen::generate_arrivals(*p, 10.0, c);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, other_seed);
  ASSERT_FALSE(first.empty());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_GE(first[i], 0.0);
    EXPECT_LT(first[i], 10.0);
    if (i > 0) {
      EXPECT_GT(first[i], first[i - 1]);
    }
  }
}

TEST(GenerateArrivals, CountTracksTheMeanRate) {
  std::string err;
  const auto p = loadgen::ArrivalProfile::parse("poisson:rate=200", &err);
  ASSERT_TRUE(p.has_value());
  common::Rng rng(7);
  const auto arrivals = loadgen::generate_arrivals(*p, 10.0, rng);
  // Poisson(2000): +/-25% is > 11 standard deviations — deterministic seed,
  // so this cannot flake, but the bound still proves the rate is honored.
  EXPECT_GT(arrivals.size(), 1500u);
  EXPECT_LT(arrivals.size(), 2500u);
}

// ---- schedule determinism ----

loadgen::LoadgenConfig small_config(std::uint64_t seed) {
  loadgen::LoadgenConfig config;
  std::string err;
  const auto p = loadgen::ArrivalProfile::parse(
      "bursty:rate=150:period=2:burst=4:duty=0.2", &err);
  EXPECT_TRUE(p.has_value()) << err;
  config.profile = *p;
  config.mix.push_back(
      {"encryption_6k", 2.0, workloads::encryption_6k().gpu});
  config.mix.push_back({"sorting_6k", 1.0, workloads::sorting_6k().gpu});
  config.sessions = 64;
  config.duration_seconds = 4.0;
  config.seed = seed;
  return config;
}

TEST(BuildSchedule, SameConfigSameScheduleDifferentSeedDiffers) {
  const auto config = small_config(42);
  const auto a = loadgen::build_schedule(config);
  const auto b = loadgen::build_schedule(config);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  bool any_second_mix = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].at_seconds, b[i].at_seconds);
    EXPECT_EQ(a[i].session, b[i].session);
    EXPECT_EQ(a[i].mix_index, b[i].mix_index);
    EXPECT_LT(a[i].session, 64u);
    EXPECT_LT(a[i].mix_index, 2u);
    any_second_mix = any_second_mix || a[i].mix_index == 1;
  }
  EXPECT_TRUE(any_second_mix) << "weighted draw never picked mix entry 1";

  const auto reseeded = loadgen::build_schedule(small_config(43));
  bool identical = reseeded.size() == a.size();
  for (std::size_t i = 0; identical && i < a.size(); ++i) {
    identical = a[i].at_seconds == reseeded[i].at_seconds &&
                a[i].session == reseeded[i].session;
  }
  EXPECT_FALSE(identical);
}

TEST(BuildSchedule, MixWeightsSetTheDrawShares) {
  // A 3:1 mix draws its first entry 75% of the time: over ~4000 draws,
  // +/-3% is more than four standard deviations.
  auto config = small_config(3);
  config.profile = loadgen::ArrivalProfile{};
  config.profile.rate = 1000.0;
  config.mix[0].weight = 3.0;
  const auto schedule = loadgen::build_schedule(config);
  ASSERT_GT(schedule.size(), 3500u);
  std::size_t first = 0;
  for (const auto& e : schedule) first += e.mix_index == 0;
  EXPECT_NEAR(static_cast<double>(first) /
                  static_cast<double>(schedule.size()),
              0.75, 0.03);
}

TEST(PoissonRequests, NamesEachDrawAndNumbersTheArrivals) {
  const std::vector<std::pair<std::string, double>> mix{{"aes", 3.0},
                                                        {"sort", 1.0}};
  const auto requests = loadgen::poisson_requests(mix, 20.0, 200, 11);
  // The horizon is 200 / 20 = 10 s, so the count is Poisson(200).
  EXPECT_GT(requests.size(), 150u);
  EXPECT_LT(requests.size(), 250u);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(requests[i].user_id, static_cast<int>(i));
    EXPECT_TRUE(requests[i].workload == "aes" ||
                requests[i].workload == "sort");
    EXPECT_LT(requests[i].arrival_seconds, 10.0);
    if (i > 0) {
      EXPECT_GT(requests[i].arrival_seconds, requests[i - 1].arrival_seconds);
    }
  }
  const auto again = loadgen::poisson_requests(mix, 20.0, 200, 11);
  ASSERT_EQ(again.size(), requests.size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i].arrival_seconds, requests[i].arrival_seconds);
    EXPECT_EQ(again[i].workload, requests[i].workload);
  }
}

// ---- BENCH datapoint + compare ----

loadgen::BenchDatapoint sample_point() {
  const auto config = small_config(42);
  loadgen::LoadgenResult result;
  result.sessions_connected = 64;
  result.sent = result.completed = result.ok = 600;
  result.wall_seconds = 4.0;
  result.requests_per_second = 150.0;
  obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.record(0.01 * (1 + i % 5));
  result.latency = h.snapshot();
  result.energy_valid = true;
  result.energy_joules = 9000.0;
  result.joules_per_request = 15.0;
  return loadgen::make_datapoint(config, result,
                                 "encryption_6k=2,sorting_6k=1", "rev-abc",
                                 1754600000);
}

TEST(Trajectory, ConfigHashSeparatesConfigsAndIsStable) {
  const auto h1 = loadgen::config_hash("poisson:rate=100", "a=1", 500, 10.0,
                                       42);
  const auto h2 = loadgen::config_hash("poisson:rate=100", "a=1", 500, 10.0,
                                       42);
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, loadgen::config_hash("poisson:rate=101", "a=1", 500, 10.0,
                                     42));
  EXPECT_NE(h1, loadgen::config_hash("poisson:rate=100", "a=2", 500, 10.0,
                                     42));
  EXPECT_NE(h1, loadgen::config_hash("poisson:rate=100", "a=1", 501, 10.0,
                                     42));
  EXPECT_NE(h1, loadgen::config_hash("poisson:rate=100", "a=1", 500, 10.0,
                                     43));
}

TEST(Trajectory, DatapointJsonIsOneParseableObject) {
  const auto point = sample_point();
  const auto text = loadgen::datapoint_json(point);
  EXPECT_EQ(text.find('\n'), std::string::npos);
  std::string err;
  const auto doc = obs::json::parse(text, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->find("schema")->as_string(), "ewcd-bench/v1");
  EXPECT_EQ(doc->find("git_rev")->as_string(), "rev-abc");
  EXPECT_EQ(doc->find("profile")->as_string(), point.profile);
  EXPECT_DOUBLE_EQ(doc->find("requests_per_second")->as_number(), 150.0);
  EXPECT_DOUBLE_EQ(doc->find("p95_seconds")->as_number(), point.p95_seconds);
  EXPECT_TRUE(doc->find("energy_valid")->as_bool());
  // The hash travels as hex text — doubles cannot carry 64 bits.
  EXPECT_EQ(doc->find("config_hash")->as_string().size(), 16u);
}

TEST(Trajectory, AppendWritesOneObjectPerLine) {
  const std::string path =
      ::testing::TempDir() + "/loadgen_trajectory_append.jsonl";
  ::unlink(path.c_str());
  const auto point = sample_point();
  std::string err;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(loadgen::append_datapoint(path, point, &err)) << err;
  }
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    const auto doc = obs::json::parse(line, &err);
    ASSERT_TRUE(doc.has_value()) << "line " << lines << ": " << err;
    EXPECT_TRUE(doc->is_object());
  }
  EXPECT_EQ(lines, 3);
}

TEST(Trajectory, CompareFlagsRegressionsWithinTolerance) {
  const std::string path =
      ::testing::TempDir() + "/loadgen_trajectory_compare.jsonl";
  ::unlink(path.c_str());
  const auto baseline = sample_point();
  std::string err;
  ASSERT_TRUE(loadgen::append_datapoint(path, baseline, &err)) << err;

  // Identical run: inside tolerance on every axis.
  auto same = baseline;
  const auto ok_verdict =
      loadgen::compare_datapoint(same, path, 0.25, &err);
  ASSERT_TRUE(ok_verdict.has_value()) << err;
  EXPECT_TRUE(ok_verdict->baseline_found);
  EXPECT_FALSE(ok_verdict->regressed);

  // p95 blows past baseline*(1+tol).
  auto slow = baseline;
  slow.p95_seconds = baseline.p95_seconds * 2.0;
  const auto slow_verdict =
      loadgen::compare_datapoint(slow, path, 0.25, &err);
  ASSERT_TRUE(slow_verdict.has_value()) << err;
  EXPECT_TRUE(slow_verdict->regressed);
  EXPECT_NE(slow_verdict->detail.find("REGRESSED p95_seconds"),
            std::string::npos);

  // Throughput collapse trips the lower bound.
  auto starved = baseline;
  starved.requests_per_second = baseline.requests_per_second * 0.5;
  const auto starved_verdict =
      loadgen::compare_datapoint(starved, path, 0.25, &err);
  ASSERT_TRUE(starved_verdict.has_value()) << err;
  EXPECT_TRUE(starved_verdict->regressed);

  // Energy regression beyond tolerance.
  auto hungry = baseline;
  hungry.joules_per_request = baseline.joules_per_request * 1.5;
  const auto hungry_verdict =
      loadgen::compare_datapoint(hungry, path, 0.25, &err);
  ASSERT_TRUE(hungry_verdict.has_value()) << err;
  EXPECT_TRUE(hungry_verdict->regressed);
}

TEST(Trajectory, CompareUsesLastMatchingBaselineAndSkipsOtherConfigs) {
  const std::string path =
      ::testing::TempDir() + "/loadgen_trajectory_last.jsonl";
  ::unlink(path.c_str());
  std::string err;

  // An older, much slower datapoint for the same config, then a recent fast
  // one: compare must judge against the LAST matching line.
  auto old_slow = sample_point();
  old_slow.p95_seconds *= 10.0;
  ASSERT_TRUE(loadgen::append_datapoint(path, old_slow, &err)) << err;
  const auto recent = sample_point();
  ASSERT_TRUE(loadgen::append_datapoint(path, recent, &err)) << err;

  auto current = sample_point();
  current.p95_seconds *= 3.0;  // fine vs old_slow, regressed vs recent
  const auto verdict =
      loadgen::compare_datapoint(current, path, 0.25, &err);
  ASSERT_TRUE(verdict.has_value()) << err;
  EXPECT_TRUE(verdict->baseline_found);
  EXPECT_TRUE(verdict->regressed);

  // A point whose config never appears in the file is not a regression —
  // first datapoint for a config has nothing to compare against.
  auto different = sample_point();
  different.config_hash ^= 0xdeadbeef;
  const auto fresh = loadgen::compare_datapoint(different, path, 0.25, &err);
  ASSERT_TRUE(fresh.has_value()) << err;
  EXPECT_FALSE(fresh->baseline_found);
  EXPECT_FALSE(fresh->regressed);
}

TEST(Trajectory, CompareFailsCleanlyOnMissingOrMalformedBaseline) {
  std::string err;
  EXPECT_FALSE(loadgen::compare_datapoint(sample_point(),
                                          "/nonexistent/baseline.jsonl",
                                          0.25, &err)
                   .has_value());
  const std::string path =
      ::testing::TempDir() + "/loadgen_trajectory_bad.jsonl";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"schema\": \"ewcd-bench/v1\", not json\n";
  }
  EXPECT_FALSE(loadgen::compare_datapoint(sample_point(), path, 0.25, &err)
                   .has_value());
  EXPECT_NE(err.find(":1:"), std::string::npos) << err;
}

}  // namespace
}  // namespace ewc
