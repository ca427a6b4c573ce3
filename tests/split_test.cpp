// Per-kernel splits of a closed batch: under the model-based policy a
// template-covered group of several kernels runs as one part per kernel (its
// contiguous run in plan order) when the parts' chosen charges sum below the
// whole group's, each part with its own framework overhead and its own
// alternative, under the template the registry picks for its kernel. The
// close rule is not touched: the close check prices groups whole.
//
// The joule figures are `ewcsim compare`'s dynamic-framework row for the
// same mix (ExperimentRunner::run_dynamic). Carries the ctest label
// "sanitize" so -DEWC_SANITIZE=thread|address builds run it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "consolidate/backend.hpp"
#include "consolidate/runner.hpp"
#include "fault/injector.hpp"
#include "obs/registry.hpp"
#include "power/power_model.hpp"
#include "workloads/paper_configs.hpp"

namespace ewc::consolidate {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Launches per closed batch, in close order: the reports of a batch's
/// groups and parts, summed.
std::vector<int> batch_sizes(const std::vector<BatchReport>& reports) {
  std::vector<int> sizes;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i == 0 || reports[i].batch != reports[i - 1].batch) {
      sizes.push_back(0);
    }
    sizes.back() += reports[i].num_instances;
  }
  return sizes;
}

/// The split counters, read as deltas from construction.
struct SplitCounts {
  SplitCounts() : groups_(read_groups()), saved_(read_saved()) {}
  double groups() const { return read_groups() - groups_; }
  double saved_joules() const { return read_saved() - saved_; }
  static double read_groups() {
    return obs::Registry::instance().counter("backend.split_groups").value();
  }
  static double read_saved() {
    return obs::Registry::instance()
        .counter("decision.split_saved_joules")
        .value();
  }
  double groups_;
  double saved_;
};

/// Every REPORT field, the decision's estimates included, bit for bit.
void expect_same_report(const BatchReport& a, const BatchReport& b) {
  EXPECT_EQ(a.num_instances, b.num_instances);
  EXPECT_EQ(a.kernel_names, b.kernel_names);
  EXPECT_EQ(a.template_name, b.template_name);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.consolidated_launches, b.consolidated_launches);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(bits(a.overhead.seconds()), bits(b.overhead.seconds()));
  EXPECT_EQ(bits(a.execution_time.seconds()),
            bits(b.execution_time.seconds()));
  EXPECT_EQ(bits(a.total_time.seconds()), bits(b.total_time.seconds()));
  EXPECT_EQ(bits(a.energy.joules()), bits(b.energy.joules()));
  ASSERT_EQ(a.decision.has_value(), b.decision.has_value());
  if (!a.decision.has_value()) return;
  EXPECT_EQ(a.decision->chosen, b.decision->chosen);
  ASSERT_EQ(a.decision->estimates.size(), b.decision->estimates.size());
  for (std::size_t i = 0; i < a.decision->estimates.size(); ++i) {
    const AlternativeEstimate& ea = a.decision->estimates[i];
    const AlternativeEstimate& eb = b.decision->estimates[i];
    EXPECT_EQ(ea.which, eb.which);
    EXPECT_EQ(bits(ea.time.seconds()), bits(eb.time.seconds()));
    EXPECT_EQ(bits(ea.charge.joules()), bits(eb.charge.joules()));
    EXPECT_EQ(ea.feasible, eb.feasible);
    EXPECT_EQ(ea.note, eb.note);
  }
}

class SplitTest : public ::testing::Test {
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

  /// `ewcsim compare`'s dynamic-framework run of `mix` under `policy`.
  static SetupResult dynamic(const std::vector<WorkloadMix>& mix,
                             std::vector<BatchReport>* reports,
                             DecisionPolicy policy = DecisionPolicy::kModelBased) {
    BackendOptions options;
    options.policy = policy;
    return ExperimentRunner(*engine_, *model_, options)
        .run_dynamic(mix, reports);
  }

  static std::vector<int> sizes(const std::vector<BatchReport>& reports) {
    std::vector<int> out;
    for (const auto& r : reports) out.push_back(r.num_instances);
    return out;
  }

  /// A backend serving `mix` as `ewcsim serve` does.
  static std::unique_ptr<Backend> make_backend(
      const std::vector<workloads::InstanceSpec>& mix, int threshold,
      common::Duration deadline = common::Duration::zero()) {
    BackendOptions options;
    options.batch_threshold = threshold;
    options.decision_deadline = deadline;
    return std::make_unique<Backend>(*engine_, *model_, served_mix(mix),
                                     options);
  }

  /// Queue `specs[i]` as launch `first_id + i` (4096 staged bytes, 4 API
  /// messages), then wait for every reply.
  static void send_and_collect(Backend& backend,
                               const std::vector<workloads::InstanceSpec>& specs,
                               bool flush, std::uint64_t first_id = 0) {
    std::vector<std::shared_ptr<ReplyChannel>> waiters;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::uint64_t id = first_id + i;
      LaunchRequest req;
      char owner[32];
      std::snprintf(owner, sizeof owner, "c0#%04llu",
                    static_cast<unsigned long long>(id));
      req.owner = owner;
      req.request_id = id;
      req.desc = specs[i].gpu;
      req.staged_bytes = 4096;
      req.api_messages = 4;
      req.reply = waiters.emplace_back(std::make_shared<ReplyChannel>());
      EXPECT_TRUE(backend.channel().send(std::move(req)));
    }
    if (flush) backend.flush();
    for (const auto& w : waiters) {
      const auto reply = w->receive_for(common::Duration::from_seconds(60.0));
      ASSERT_TRUE(reply.has_value());
      EXPECT_TRUE(reply->ok) << reply->error;
    }
  }

  static gpusim::FluidEngine* engine_;
  static power::GpuPowerModel* model_;
};
gpusim::FluidEngine* SplitTest::engine_ = nullptr;
power::GpuPowerModel* SplitTest::model_ = nullptr;

/// `encs` encryption_6k launches then `sorts` sorting_6k launches.
std::vector<WorkloadMix> enc_sort(int encs, int sorts) {
  return {{workloads::encryption_6k(), encs}, {workloads::sorting_6k(), sorts}};
}

/// `n` launches of the benchmark's 2:1 encryption/sorting mix, sorting
/// third.
std::vector<workloads::InstanceSpec> two_to_one(int n) {
  std::vector<workloads::InstanceSpec> stream;
  for (int i = 0; i < n; ++i) {
    stream.push_back(i % 3 == 2 ? workloads::sorting_6k()
                                : workloads::encryption_6k());
  }
  return stream;
}

TEST_F(SplitTest, ElevenToFiveRunsAsOnePartPerKernel) {
  SplitCounts counts;
  std::vector<BatchReport> reports;
  const SetupResult split = dynamic(enc_sort(11, 5), &reports);
  ASSERT_EQ(sizes(reports), (std::vector<int>{11, 5}));
  for (const BatchReport& part : reports) {
    EXPECT_EQ(part.executed, Alternative::kConsolidatedGpu);
    EXPECT_EQ(part.batch, reports[0].batch);
    EXPECT_FALSE(part.degraded);
  }
  // Each part runs under its own kernel's template, as a batch of that
  // kernel alone would.
  EXPECT_EQ(reports[0].kernel_names,
            std::vector<std::string>(11, "aes_encrypt"));
  EXPECT_EQ(reports[0].template_name, "aes_encrypt_homogeneous");
  EXPECT_EQ(reports[1].kernel_names,
            std::vector<std::string>(5, "bitonic_sort"));
  EXPECT_EQ(reports[1].template_name, "bitonic_sort_homogeneous");
  EXPECT_NEAR(split.energy.joules(), 2354.0, 0.5);
  EXPECT_EQ(counts.groups(), 1.0);

  // The whole group, as a fixed policy runs it, charges 2748 J; the parts
  // were predicted to save about that much.
  std::vector<BatchReport> whole_reports;
  const SetupResult whole = dynamic(enc_sort(11, 5), &whole_reports,
                                    DecisionPolicy::kAlwaysConsolidate);
  ASSERT_EQ(sizes(whole_reports), (std::vector<int>{16}));
  EXPECT_NEAR(whole.energy.joules(), 2748.0, 0.5);
  EXPECT_NEAR(counts.saved_joules(),
              whole.energy.joules() - split.energy.joules(), 5.0);
}

TEST_F(SplitTest, MixesWhoseWholeGroupChargesLessStayWhole) {
  SplitCounts counts;
  for (const auto& [encs, sorts, joules] :
       {std::tuple{8, 3, 1847.0}, std::tuple{14, 2, 2544.0}}) {
    SCOPED_TRACE(std::to_string(encs) + ":" + std::to_string(sorts));
    std::vector<BatchReport> reports;
    const SetupResult r = dynamic(enc_sort(encs, sorts), &reports);
    ASSERT_EQ(sizes(reports), (std::vector<int>{encs + sorts}));
    EXPECT_EQ(reports[0].executed, Alternative::kConsolidatedGpu);
    EXPECT_NEAR(r.energy.joules(), joules, 0.5);
  }
  EXPECT_EQ(counts.groups(), 0.0);
  EXPECT_EQ(counts.saved_joules(), 0.0);
}

TEST_F(SplitTest, SearchRunsOnTheCpuBesideConsolidatedBlackscholes) {
  // As one group the mix charges 2353 J; alone, search's own pick is the
  // CPU.
  SplitCounts counts;
  std::vector<BatchReport> reports;
  const SetupResult r = dynamic(
      {{workloads::search_10k(), 4}, {workloads::blackscholes_4096k(), 4}},
      &reports);
  ASSERT_EQ(sizes(reports), (std::vector<int>{4, 4}));
  EXPECT_EQ(reports[0].kernel_names,
            std::vector<std::string>(4, "blackscholes"));
  EXPECT_EQ(reports[0].executed, Alternative::kConsolidatedGpu);
  EXPECT_EQ(reports[1].kernel_names, std::vector<std::string>(4, "search"));
  EXPECT_EQ(reports[1].executed, Alternative::kCpu);
  EXPECT_EQ(reports[0].template_name, "blackscholes_homogeneous");
  EXPECT_EQ(reports[1].template_name, "search_homogeneous");
  EXPECT_NEAR(r.energy.joules(), 1754.0, 0.5);
  EXPECT_EQ(counts.groups(), 1.0);
}

TEST_F(SplitTest, SingleKernelBatchesAreUnchanged) {
  // The dynamic run's total energy and time, bit for bit as they were
  // before splits were priced: a one-kernel group has no parts, so nothing
  // is priced and nothing moves.
  struct Case {
    const char* name;
    std::vector<WorkloadMix> mix;
    std::uint64_t energy_bits;
    std::uint64_t time_bits;
  };
  SplitCounts counts;
  for (const Case& c :
       {Case{"kmeans_256k x16",
             {{workloads::kmeans_256k(), 16}},
             0x40a027277f1317f7,
             0x4022053087928d16},
        Case{"encryption_6k x16",
             {{workloads::encryption_6k(), 16}},
             0x40a3247572bacc47,
             0x402524487938c759},
        Case{"sorting_6k x5",
             {{workloads::sorting_6k(), 5}},
             0x4085bbfd12f3e536,
             0x4005feaa2e174436}}) {
    SCOPED_TRACE(c.name);
    std::vector<BatchReport> reports;
    const SetupResult r = dynamic(c.mix, &reports);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(bits(r.energy.joules()), c.energy_bits);
    EXPECT_EQ(bits(r.time.seconds()), c.time_bits);
  }
  EXPECT_EQ(counts.groups(), 0.0);
}

TEST_F(SplitTest, FixedPoliciesNeverSplit) {
  SplitCounts counts;
  for (const DecisionPolicy policy :
       {DecisionPolicy::kAlwaysConsolidate,
        DecisionPolicy::kNeverConsolidate}) {
    for (const auto& mix :
         {enc_sort(11, 5),
          std::vector<WorkloadMix>{{workloads::search_10k(), 4},
                                   {workloads::blackscholes_4096k(), 4}}}) {
      std::vector<BatchReport> reports;
      dynamic(mix, &reports, policy);
      ASSERT_EQ(reports.size(), 1u);
      EXPECT_EQ(reports[0].executed,
                policy == DecisionPolicy::kAlwaysConsolidate
                    ? Alternative::kConsolidatedGpu
                    : Alternative::kIndividualGpu);
    }
  }
  EXPECT_EQ(counts.groups(), 0.0);
  EXPECT_EQ(counts.saved_joules(), 0.0);
}

/// Arms a scenario for one test and disarms it after.
class ArmGuard {
 public:
  ArmGuard(const std::string& scenario, std::uint64_t seed) {
    std::string error;
    armed_ = fault::Injector::instance().arm(scenario, seed, &error);
    EXPECT_TRUE(armed_) << error;
  }
  ~ArmGuard() { fault::Injector::instance().disarm(); }
  bool armed() const { return armed_; }

 private:
  bool armed_ = false;
};

TEST_F(SplitTest, DecideFaultDegradesExactlyOnePart) {
  std::vector<workloads::InstanceSpec> batch;
  for (const auto& m : enc_sort(11, 5)) {
    for (int i = 0; i < m.count; ++i) batch.push_back(m.spec);
  }
  const auto mix = std::vector{workloads::encryption_6k(),
                               workloads::sorting_6k()};
  auto clean = make_backend(mix, 1000);
  send_and_collect(*clean, batch, /*flush=*/true);
  const auto want = clean->reports();
  ASSERT_EQ(sizes(want), (std::vector<int>{11, 5}));
  clean->shutdown();

  // The second decide draw fails. Pricing makes no draw (three pure
  // evaluations: the whole group and its two parts), so the draws are the
  // parts' decides, one each: the sorting part degrades to the serial plan
  // and the encryption part runs as it does with no fault armed.
  auto backend = make_backend(mix, 1000);
  ArmGuard guard("decision.decide=fail:after=1:times=1", 0);
  ASSERT_TRUE(guard.armed());
  send_and_collect(*backend, batch, /*flush=*/true);
  const auto got = backend->reports();
  ASSERT_EQ(sizes(got), (std::vector<int>{11, 5}));
  expect_same_report(got[0], want[0]);
  EXPECT_TRUE(got[1].degraded);
  EXPECT_FALSE(got[1].decision.has_value());
  EXPECT_EQ(got[1].executed, Alternative::kIndividualGpu);
  EXPECT_EQ(fault::Injector::instance().fired("decision.decide"), 1u);
  backend->shutdown();
}

TEST_F(SplitTest, DecisionDeadlineLeavesTheSplitUnchanged) {
  // With a deadline every pricing and decide runs on the decision thread.
  const auto mix = std::vector{workloads::encryption_6k(),
                               workloads::sorting_6k()};
  const auto stream = two_to_one(3 * 16);
  auto inline_backend = make_backend(mix, 16);
  send_and_collect(*inline_backend, stream, /*flush=*/true);
  auto threaded = make_backend(mix, 16, common::Duration::from_seconds(60.0));
  send_and_collect(*threaded, stream, /*flush=*/true);
  const auto want = inline_backend->reports();
  const auto got = threaded->reports();
  EXPECT_EQ(batch_sizes(got), batch_sizes(want));
  ASSERT_EQ(got.size(), want.size());
  EXPECT_GT(got.size(), batch_sizes(want).size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("report " + std::to_string(i));
    expect_same_report(got[i], want[i]);
  }
  inline_backend->shutdown();
  threaded->shutdown();
}

TEST_F(SplitTest, MemoizedEarlyCloseRunsTheFreshParts) {
  // The 2:1 stream repeats its pending batches, so later early closes come
  // from the close memo, parts and their evaluations included. Each batch
  // must run as the same parts, bit for bit, as a fresh backend's flush of
  // the same launches, which prices them afresh.
  const auto mix = std::vector{workloads::encryption_6k(),
                               workloads::sorting_6k()};
  const auto stream = two_to_one(5 * 16);
  SplitCounts counts;
  const double hits_before =
      obs::Registry::instance().counter("backend.close_cache.hits").value();
  auto backend = make_backend(mix, 16);
  send_and_collect(*backend, stream, /*flush=*/true);
  const auto reports = backend->reports();
  const std::vector<int> batches = batch_sizes(reports);
  EXPECT_GT(
      obs::Registry::instance().counter("backend.close_cache.hits").value(),
      hits_before);
  // Every batch of the mix splits in two.
  EXPECT_EQ(reports.size(), 2 * batches.size());
  EXPECT_EQ(counts.groups(), static_cast<double>(batches.size()));
  backend->shutdown();

  std::size_t first = 0;
  std::size_t next = 0;
  for (const int size : batches) {
    SCOPED_TRACE("batch at launch " + std::to_string(first));
    const std::vector<workloads::InstanceSpec> launches(
        stream.begin() + static_cast<std::ptrdiff_t>(first),
        stream.begin() + static_cast<std::ptrdiff_t>(first + size));
    auto fresh = make_backend(mix, 16);
    send_and_collect(*fresh, launches, /*flush=*/true, first);
    for (const BatchReport& want : fresh->reports()) {
      ASSERT_LT(next, reports.size());
      expect_same_report(reports[next++], want);
    }
    fresh->shutdown();
    first += static_cast<std::size_t>(size);
  }
  EXPECT_EQ(first, stream.size());
  EXPECT_EQ(next, reports.size());
}

TEST_F(SplitTest, DeclinedGroupPriceDegradesAtOnce) {
  // The whole group's price overruns the deadline, so the group degrades
  // without a decide: asking the same predictor again would only wait out a
  // second deadline. No decide runs, so the armed decide fault never fires.
  std::vector<workloads::InstanceSpec> batch;
  for (const auto& m : enc_sort(11, 5)) {
    for (int i = 0; i < m.count; ++i) batch.push_back(m.spec);
  }
  auto backend = make_backend({workloads::encryption_6k(),
                               workloads::sorting_6k()},
                              1000, common::Duration::from_seconds(0.05));
  ArmGuard guard(
      "backend.price=stall:times=1:dur=0.25;decision.decide=fail:times=1", 0);
  ASSERT_TRUE(guard.armed());
  send_and_collect(*backend, batch, /*flush=*/true);
  const auto reports = backend->reports();
  ASSERT_EQ(sizes(reports), (std::vector<int>{16}));
  EXPECT_TRUE(reports[0].degraded);
  EXPECT_NE(reports[0].degraded_reason.find("deadline"), std::string::npos)
      << reports[0].degraded_reason;
  EXPECT_EQ(reports[0].executed, Alternative::kIndividualGpu);
  // Shutdown drains the decision thread, so a decide queued behind the
  // stall would have drawn by now.
  backend->shutdown();
  EXPECT_EQ(fault::Injector::instance().fired("backend.price"), 1u);
  EXPECT_EQ(fault::Injector::instance().fired("decision.decide"), 0u);
}

TEST_F(SplitTest, DeclinedPartPriceIsNotMemoized) {
  // A full 2:1 batch, then twice the launches that close the next batch
  // early at 11 (7 encryption, 4 sorting), each pending batch of the second
  // pass identical to the first's. Pricing draws: 1-3 the full batch (whole
  // and two parts), 4-11 the checks at 8, 9 and 10 pending (stay open) and
  // at 11 (closes), two whole prices each, 12 the first part of that close.
  // Draw 12 stalls past the deadline, so that batch runs whole. The second
  // pass's close at 11 must price afresh and split, as a fault-free run
  // does: a memoized whole verdict would run it whole again.
  const auto mix = std::vector{workloads::encryption_6k(),
                               workloads::sorting_6k()};
  const auto first = two_to_one(27);
  std::vector<workloads::InstanceSpec> stream(first.begin(), first.end());
  stream.insert(stream.end(), first.begin() + 16, first.end());
  const auto deadline = common::Duration::from_seconds(0.5);

  auto clean = make_backend(mix, 16, deadline);
  send_and_collect(*clean, stream, /*flush=*/true);
  const auto want = clean->reports();
  ASSERT_EQ(sizes(want), (std::vector<int>{11, 5, 7, 4, 7, 4}));
  clean->shutdown();

  // The stall ends well inside the deadline of the decide queued behind it.
  auto backend = make_backend(mix, 16, deadline);
  ArmGuard guard("backend.price=stall:after=11:times=1:dur=0.75", 0);
  ASSERT_TRUE(guard.armed());
  send_and_collect(*backend, stream, /*flush=*/true);
  const auto got = backend->reports();
  EXPECT_EQ(fault::Injector::instance().fired("backend.price"), 1u);
  EXPECT_EQ(batch_sizes(got), (std::vector<int>{16, 11, 11}));
  ASSERT_EQ(sizes(got), (std::vector<int>{11, 5, 11, 7, 4}));
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE("first batch, report " + std::to_string(i));
    expect_same_report(got[i], want[i]);
  }
  for (std::size_t i = 3; i < got.size(); ++i) {
    SCOPED_TRACE("third batch, report " + std::to_string(i));
    expect_same_report(got[i], want[i + 1]);
  }
  backend->shutdown();
}

}  // namespace
}  // namespace ewc::consolidate
