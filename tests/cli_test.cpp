// Tests for the ewcsim command-line front end (flag parser + subcommands).
#include <gtest/gtest.h>

#include <cstdio>
#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "cli/args.hpp"
#include "cli/commands.hpp"

namespace ewc::cli {
namespace {

// ---------------- flag parser ----------------

FlagParser make_parser() {
  return FlagParser({
      {"name", "a string", false, false},
      {"count", "an int", false, false},
      {"rate", "a double", false, false},
      {"verbose", "a boolean", true, false},
      {"workload", "repeatable", false, true},
  });
}

TEST(FlagParser, ParsesSeparateAndInlineValues) {
  auto p = make_parser();
  p.parse({"--name", "alpha", "--count=7"});
  EXPECT_EQ(p.get_string("name", ""), "alpha");
  EXPECT_EQ(p.get_int("count", 0), 7);
}

TEST(FlagParser, BooleanFlags) {
  auto p = make_parser();
  p.parse({"--verbose"});
  EXPECT_TRUE(p.get_bool("verbose"));
  auto q = make_parser();
  q.parse({});
  EXPECT_FALSE(q.get_bool("verbose"));
}

TEST(FlagParser, BooleanRejectsValue) {
  auto p = make_parser();
  EXPECT_THROW(p.parse({"--verbose=yes"}), ArgsError);
}

TEST(FlagParser, RepeatableFlagsAccumulate) {
  auto p = make_parser();
  p.parse({"--workload", "a=1", "--workload", "b=2"});
  auto ws = p.values("workload");
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[0], "a=1");
  EXPECT_EQ(ws[1], "b=2");
}

TEST(FlagParser, NonRepeatableRejectsRepeat) {
  auto p = make_parser();
  EXPECT_THROW(p.parse({"--name", "a", "--name", "b"}), ArgsError);
}

TEST(FlagParser, UnknownFlagRejected) {
  auto p = make_parser();
  EXPECT_THROW(p.parse({"--bogus", "1"}), ArgsError);
}

TEST(FlagParser, MissingValueRejected) {
  auto p = make_parser();
  EXPECT_THROW(p.parse({"--name"}), ArgsError);
}

TEST(FlagParser, TypedGetterValidation) {
  auto p = make_parser();
  p.parse({"--count", "abc", "--rate", "1.5"});
  EXPECT_THROW(p.get_int("count", 0), ArgsError);
  EXPECT_DOUBLE_EQ(p.get_double("rate", 0.0), 1.5);
  auto q = make_parser();
  q.parse({"--rate", "1.5x"});
  EXPECT_THROW(q.get_double("rate", 0.0), ArgsError);
}

TEST(FlagParser, NumericParsingRejectsGarbageAndOverflow) {
  // Trailing garbage on an integer.
  auto p = make_parser();
  p.parse({"--count", "12abc"});
  EXPECT_THROW(p.get_int("count", 0), ArgsError);

  // Integer overflow reports "out of range", not "expects an integer".
  auto q = make_parser();
  q.parse({"--count", "99999999999999999999"});
  try {
    q.get_int("count", 0);
    FAIL() << "expected ArgsError";
  } catch (const ArgsError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("--count"), std::string::npos);
  }

  // Double overflow (1e400 is not representable).
  auto r = make_parser();
  r.parse({"--rate", "1e400"});
  EXPECT_THROW(r.get_double("rate", 0.0), ArgsError);

  // Errors name the offending flag.
  auto s = make_parser();
  s.parse({"--rate", "abc"});
  try {
    s.get_double("rate", 0.0);
    FAIL() << "expected ArgsError";
  } catch (const ArgsError& e) {
    EXPECT_NE(std::string(e.what()).find("--rate"), std::string::npos)
        << e.what();
  }
}

TEST(FlagParser, RangedGettersEnforceBounds) {
  auto p = make_parser();
  p.parse({"--count", "-1"});
  EXPECT_THROW(p.get_int_in("count", 1, 1, 100), ArgsError);

  auto q = make_parser();
  q.parse({"--count", "50"});
  EXPECT_EQ(q.get_int_in("count", 1, 1, 100), 50);

  auto r = make_parser();
  r.parse({"--rate", "nan"});
  EXPECT_THROW(r.get_double_in("rate", 1.0, 0.0, 100.0), ArgsError);

  auto s = make_parser();
  s.parse({"--rate", "inf"});
  EXPECT_THROW(s.get_double_in("rate", 1.0, 0.0, 100.0), ArgsError);

  auto t = make_parser();
  t.parse({"--rate", "250.0"});
  EXPECT_THROW(t.get_double_in("rate", 1.0, 0.0, 100.0), ArgsError);
  auto u = make_parser();
  u.parse({"--rate", "2.5"});
  EXPECT_DOUBLE_EQ(u.get_double_in("rate", 1.0, 0.0, 100.0), 2.5);
}

TEST(Commands, TraceRejectsMalformedNumericFlags) {
  // The hardened parsing surfaces as exit code 2 + a flag-naming message.
  auto run = [](std::vector<std::string> argv) {
    std::ostringstream out, err;
    const int code = run_command(argv, out, err);
    return std::make_pair(code, err.str());
  };
  auto [c1, e1] = run({"trace", "--rate=abc"});
  EXPECT_EQ(c1, 2);
  EXPECT_NE(e1.find("--rate"), std::string::npos) << e1;

  auto [c2, e2] = run({"trace", "--threshold=-1", "--requests", "5"});
  EXPECT_EQ(c2, 2);

  auto [c3, e3] = run({"trace", "--requests", "99999999999999999999"});
  EXPECT_EQ(c3, 2);
  EXPECT_NE(e3.find("out of range"), std::string::npos) << e3;

  auto [c4, e4] = run({"trace", "--rate", "1e400"});
  EXPECT_EQ(c4, 2);

  auto [c5, e5] = run({"serve", "--socket", "/tmp/x.sock", "--workload",
                       "encryption_12k=1", "--deadline", "nan"});
  EXPECT_EQ(c5, 2);
  EXPECT_NE(e5.find("--deadline"), std::string::npos) << e5;
}

TEST(FlagParser, PositionalCollected) {
  auto p = make_parser();
  p.parse({"pos1", "--name", "n", "pos2"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "pos1");
}

TEST(FlagParser, DefaultsApply) {
  auto p = make_parser();
  p.parse({});
  EXPECT_EQ(p.get_int("count", 42), 42);
  EXPECT_EQ(p.get_string("name", "dflt"), "dflt");
}

TEST(FlagParser, UsageListsFlags) {
  auto p = make_parser();
  EXPECT_NE(p.usage().find("--workload"), std::string::npos);
  EXPECT_NE(p.usage().find("(repeatable)"), std::string::npos);
}

TEST(WorkloadCount, ParsesNameAndCount) {
  auto [name, count] = parse_workload_count("encryption_12k=6");
  EXPECT_EQ(name, "encryption_12k");
  EXPECT_EQ(count, 6);
  auto [n2, c2] = parse_workload_count("sorting_6k");
  EXPECT_EQ(n2, "sorting_6k");
  EXPECT_EQ(c2, 1);
  EXPECT_THROW(parse_workload_count("x=zero"), ArgsError);
  EXPECT_THROW(parse_workload_count("x=0"), ArgsError);
}

// ---------------- commands ----------------

TEST(Commands, HelpAndUnknown) {
  std::ostringstream out, err;
  EXPECT_EQ(run_command({"help"}, out, err), 0);
  EXPECT_NE(out.str().find("ewcsim"), std::string::npos);
  EXPECT_EQ(run_command({"frobnicate"}, out, err), 2);
  EXPECT_EQ(run_command({}, out, err), 2);
}

TEST(Commands, ListShowsCatalogue) {
  std::ostringstream out, err;
  EXPECT_EQ(run_command({"list"}, out, err), 0);
  EXPECT_NE(out.str().find("encryption_12k"), std::string::npos);
  EXPECT_NE(out.str().find("t78_montecarlo"), std::string::npos);
}

// Every command that resolves --workload names rejects an unknown one with
// the same message and exit status; `serve` before it binds anything.
TEST(Commands, UnknownWorkloadFailsWithTheCatalogueHint) {
  const std::string want =
      "error: unknown workload 'nope' (run `ewcsim list` for the "
      "catalogue)\n";
  const std::vector<std::vector<std::string>> commands = {
      {"compare", "--workload", "nope=2"},
      {"predict", "--workload", "nope"},
      {"cache-stats", "--workload", "nope"},
      {"serve", "--socket", "unix:/nonexistent-dir/ewcd.sock", "--workload",
       "nope=1"},
  };
  for (const auto& argv : commands) {
    std::ostringstream out, err;
    EXPECT_EQ(run_command(argv, out, err), 2) << argv.front();
    EXPECT_EQ(err.str(), want) << argv.front();
    EXPECT_EQ(out.str(), "") << argv.front();
  }
}

TEST(Commands, PredictRunsModels) {
  std::ostringstream out, err;
  EXPECT_EQ(run_command({"predict", "--workload", "sorting_6k"}, out, err), 0)
      << err.str();
  EXPECT_NE(out.str().find("predicted:"), std::string::npos);
  EXPECT_NE(out.str().find("Hong-Kim"), std::string::npos);
}

TEST(Commands, PredictValidatesFlags) {
  std::ostringstream out, err;
  EXPECT_EQ(run_command({"predict"}, out, err), 2);
  EXPECT_NE(err.str().find("--workload"), std::string::npos);
  std::ostringstream out2, err2;
  EXPECT_EQ(run_command({"predict", "--workload", "nope"}, out2, err2), 2);
}

TEST(Commands, CompareRunsFourSetups) {
  std::ostringstream out, err;
  EXPECT_EQ(run_command({"compare", "--workload", "encryption_12k=4"}, out,
                        err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("dynamic-framework"), std::string::npos);
  EXPECT_NE(out.str().find("serial-gpu"), std::string::npos);
}

// The framework runs what its models predict to be cheapest, so what it
// is charged never exceeds the cheapest alternative plus its own overhead.
// On these encryption/sorting mixes consolidation is cheapest; 14:2 once
// ran on the CPU and was charged 4423 J against about 2544 J.
//
// A mix that runs split pays each part's overhead, less than the whole
// group's, but runs its kernels as separate launches, so it is held to the
// whole group's bound: the cheapest row plus the idle draw through the whole
// group's overhead. 14:2 runs whole, so that is its framework-overhead row;
// 13:3 runs split, and its whole group's overhead charges 1304.46 J (a
// 2612 J bound).
TEST(Commands, CompareDynamicFrameworkCostsTheCheapestPlusOverhead) {
  const std::string csv = ::testing::TempDir() + "/compare_ledger.csv";
  for (const auto& [enc, sort, whole_overhead] :
       {std::tuple{14, 2, std::optional<double>{}},
        std::tuple{13, 3, std::optional<double>{1304.46}}}) {
    SCOPED_TRACE(std::to_string(enc) + ":" + std::to_string(sort));
    std::ostringstream out, err;
    ASSERT_EQ(run_command({"compare", "--workload",
                           "encryption_6k=" + std::to_string(enc),
                           "--workload", "sorting_6k=" + std::to_string(sort),
                           "--csv", csv},
                          out, err),
              0)
        << err.str();
    std::map<std::string, double> joules;
    std::ifstream in(csv);
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      const auto first = line.find(',');
      const auto last = line.rfind(',');
      joules[line.substr(0, first)] = std::stod(line.substr(last + 1));
    }
    ASSERT_EQ(joules.size(), 6u) << out.str();
    const double cheapest =
        std::min({joules.at("cpu"), joules.at("serial-gpu"),
                  joules.at("manual-consolidated")});
    const double overhead = joules.at("framework-overhead");
    if (whole_overhead.has_value()) EXPECT_LT(overhead, *whole_overhead);
    EXPECT_LE(joules.at("dynamic-framework"),
              cheapest + whole_overhead.value_or(overhead))
        << out.str();
  }
}

// The `cpu` row is the paper's baseline, measured with the GPU
// disconnected; `cpu-charged` is what the daemon charges for the same run,
// with the idle GPU's 72 W (system_idle_with_gpu - host_only_idle) added
// through it.
TEST(Commands, CompareCpuChargedAddsTheIdleGpu) {
  const std::string csv = ::testing::TempDir() + "/compare_cpu.csv";
  std::ostringstream out, err;
  ASSERT_EQ(run_command({"compare", "--workload", "encryption_6k=8", "--csv",
                         csv},
                        out, err),
            0)
      << err.str();
  std::map<std::string, std::pair<double, double>> rows;  // time, joules
  std::ifstream in(csv);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const auto first = line.find(',');
    const auto last = line.rfind(',');
    rows[line.substr(0, first)] = {
        std::stod(line.substr(first + 1, last - first - 1)),
        std::stod(line.substr(last + 1))};
  }
  ASSERT_EQ(rows.count("cpu-charged"), 1u) << out.str();
  const auto [time, joules] = rows.at("cpu");
  EXPECT_GT(time, 0.0);
  EXPECT_EQ(rows.at("cpu-charged").first, time);
  EXPECT_NEAR(rows.at("cpu-charged").second, joules + 72.0 * time, 1e-3);
}

TEST(Commands, PtxSampleAnalysis) {
  std::ostringstream out, err;
  EXPECT_EQ(run_command({"ptx", "--sample", "blackscholes"}, out, err), 0)
      << err.str();
  EXPECT_NE(out.str().find("blackscholes"), std::string::npos);
  std::ostringstream out2, err2;
  EXPECT_EQ(run_command({"ptx", "--sample", "nonexistent"}, out2, err2), 2);
  std::ostringstream out3, err3;
  EXPECT_EQ(run_command({"ptx"}, out3, err3), 2);
}

TEST(Commands, PtxFromFile) {
  const std::string path = "/tmp/ewc_cli_test.ptx";
  {
    std::ofstream f(path);
    f << ".version 1.4\n.target sm_13\n.entry mini ( .param .u64 p )\n{\n"
         "    .reg .u32 %r<3>;\n    add.u32 %r1, %r1, 1;\n    exit;\n}\n";
  }
  std::ostringstream out, err;
  EXPECT_EQ(run_command({"ptx", "--file", path}, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("mini"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Commands, TimelineEmitsCsv) {
  std::ostringstream out, err;
  EXPECT_EQ(run_command({"timeline", "--workload", "sorting_6k=3"}, out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("t_s,busy_sms,resident_blocks,dram_util"),
            std::string::npos);
  EXPECT_NE(out.str().find("avg DRAM util"), std::string::npos);
}

TEST(Commands, TraceReportsLatencies) {
  std::ostringstream out, err;
  EXPECT_EQ(run_command({"trace", "--requests", "12", "--rate", "2",
                         "--threshold", "4"},
                        out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("mean latency"), std::string::npos);
  std::ostringstream out2, err2;
  EXPECT_EQ(run_command({"trace", "--requests", "0"}, out2, err2), 2);
  // --requests is the expected count: this seed draws no arrival at all.
  std::ostringstream out3, err3;
  EXPECT_EQ(run_command({"trace", "--requests", "1", "--seed", "2"}, out3,
                        err3),
            0)
      << err3.str();
  EXPECT_NE(out3.str().find("0 requests"), std::string::npos) << out3.str();
  EXPECT_NE(out3.str().find("(0 J/request)"), std::string::npos)
      << out3.str();
}

TEST(Commands, CacheStatsReportsParityAndCounters) {
  // Exit code 0 certifies the cache-on replay matched cache-off exactly.
  std::ostringstream out, err;
  EXPECT_EQ(run_command({"cache-stats", "--requests", "40", "--pool", "2"},
                        out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("run cache:"), std::string::npos);
  EXPECT_NE(out.str().find("predict cache:"), std::string::npos);
  EXPECT_NE(out.str().find("identical"), std::string::npos);
  EXPECT_EQ(out.str().find("DIVERGED"), std::string::npos);

  std::ostringstream out2, err2;
  EXPECT_EQ(run_command({"cache-stats", "--requests", "0"}, out2, err2), 2);
  std::ostringstream out3, err3;
  EXPECT_EQ(
      run_command({"cache-stats", "--workload", "mystery"}, out3, err3), 2);
}

}  // namespace
}  // namespace ewc::cli
