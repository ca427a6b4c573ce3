// The backend's close rule: a batch closes at its threshold, on a flush or
// shutdown, or — once a batch has closed at the threshold — at half the
// threshold when the decision engine predicts it costs no more joules per
// request than the batches closed at the threshold or early so far, on
// average.
//
// Every test feeds the backend channel from one thread and reads the
// outcome after a flush, so batch formation depends only on the order of
// the messages: no sleeps, no wall-clock timing. Carries the ctest label
// "sanitize" so -DEWC_SANITIZE=thread builds run it under TSan.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "consolidate/backend.hpp"
#include "fault/injector.hpp"
#include "obs/registry.hpp"
#include "power/trainer.hpp"
#include "workloads/paper_configs.hpp"
#include "workloads/rodinia_like.hpp"

namespace ewc::consolidate {
namespace {

constexpr int kThreshold = 16;
constexpr int kHalf = (kThreshold + 1) / 2;

class CloseRuleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new gpusim::FluidEngine();
    power::ModelTrainer trainer(*engine_);
    model_ = new power::GpuPowerModel(
        trainer.train(workloads::rodinia_training_kernels()).model);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete engine_;
    model_ = nullptr;
    engine_ = nullptr;
  }

  /// A backend set up as `ewcsim serve` sets one up for `mix`: the paper's
  /// templates plus one covering the whole mix, and every CPU profile.
  static std::unique_ptr<Backend> make_backend(
      const std::vector<workloads::InstanceSpec>& mix,
      int threshold = kThreshold) {
    BackendOptions options;
    options.batch_threshold = threshold;
    TemplateRegistry templates = TemplateRegistry::paper_defaults();
    ConsolidationTemplate t;
    t.name = "experiment_mix";
    for (const auto& spec : mix) t.kernels.insert(spec.gpu.name);
    templates.add(std::move(t));
    auto backend = std::make_unique<Backend>(*engine_, *model_,
                                             std::move(templates), options);
    for (const auto& spec : mix) {
      backend->set_cpu_profile(spec.gpu.name, spec.cpu);
    }
    return backend;
  }

  /// Queue `specs[i]` as launch `first_id + i`; the replies come back
  /// through the returned channels, in the same order.
  static std::vector<std::shared_ptr<ReplyChannel>> send(
      Backend& backend, const std::vector<workloads::InstanceSpec>& specs,
      std::uint64_t first_id = 0) {
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
      req.reply = std::make_shared<ReplyChannel>();
      waiters.push_back(req.reply);
      EXPECT_TRUE(backend.channel().send(std::move(req)));
    }
    return waiters;
  }

  static std::vector<CompletionReply> collect(
      const std::vector<std::shared_ptr<ReplyChannel>>& waiters) {
    std::vector<CompletionReply> replies;
    for (const auto& w : waiters) {
      auto reply = w->receive_for(common::Duration::from_seconds(60.0));
      EXPECT_TRUE(reply.has_value());
      if (!reply.has_value()) break;
      EXPECT_TRUE(reply->ok) << reply->error;
      replies.push_back(std::move(*reply));
    }
    return replies;
  }

  static std::vector<int> sizes(const Backend& backend) {
    std::vector<int> out;
    for (const auto& r : backend.reports()) out.push_back(r.num_instances);
    return out;
  }

  static std::vector<workloads::InstanceSpec> repeat(
      const workloads::InstanceSpec& spec, int n) {
    return std::vector<workloads::InstanceSpec>(static_cast<std::size_t>(n),
                                                spec);
  }

  static gpusim::FluidEngine* engine_;
  static power::GpuPowerModel* model_;
};
gpusim::FluidEngine* CloseRuleTest::engine_ = nullptr;
power::GpuPowerModel* CloseRuleTest::model_ = nullptr;

/// The close counters, read as deltas from construction.
struct CloseCounts {
  CloseCounts() : base_(read()) {}
  std::vector<double> delta() const {
    std::vector<double> now = read();
    for (std::size_t i = 0; i < now.size(); ++i) now[i] -= base_[i];
    return now;
  }
  static std::vector<double> read() {
    obs::Registry& r = obs::Registry::instance();
    return {r.counter("backend.closes.threshold").value(),
            r.counter("backend.closes.early").value(),
            r.counter("backend.closes.flush").value(),
            r.counter("backend.close_checks").value()};
  }
  std::vector<double> base_;
};

TEST_F(CloseRuleTest, KmeansStreamClosesAtHalfAfterTheFirstFullBatch) {
  const auto spec = workloads::kmeans_256k();
  auto backend = make_backend({spec});
  CloseCounts counts;
  auto waiters = send(*backend, repeat(spec, 3 * kThreshold));
  backend->flush();
  const auto replies = collect(waiters);
  ASSERT_EQ(replies.size(), waiters.size());
  for (std::size_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i].request_id, i);
  }
  EXPECT_EQ(sizes(*backend),
            (std::vector<int>{kThreshold, kHalf, kHalf, kHalf, kHalf}));
  // threshold, early, flush, checks: the flush finds nothing pending.
  EXPECT_EQ(counts.delta(), (std::vector<double>{1, 4, 0, 4}));
  backend->shutdown();
}

TEST_F(CloseRuleTest, TwoToOneMixKeepsFullBatches) {
  const auto enc = workloads::encryption_6k();
  const auto sort = workloads::sorting_6k();
  auto backend = make_backend({enc, sort});
  std::vector<workloads::InstanceSpec> stream;
  for (int i = 0; i < 3 * kThreshold; ++i) {
    stream.push_back(i % 3 == 2 ? sort : enc);
  }
  CloseCounts counts;
  auto waiters = send(*backend, stream);
  backend->flush();
  EXPECT_EQ(collect(waiters).size(), waiters.size());
  EXPECT_EQ(sizes(*backend),
            (std::vector<int>{kThreshold, kThreshold, kThreshold}));
  // The two later batches were checked at half and kept waiting.
  EXPECT_EQ(counts.delta(), (std::vector<double>{3, 0, 0, 2}));
  backend->shutdown();
}

TEST_F(CloseRuleTest, HalfBatchIsComparedWithTheMeanNotTheLastBatch) {
  const auto enc = workloads::encryption_6k();
  const auto sort = workloads::sorting_6k();
  auto backend = make_backend({enc, sort});
  std::vector<workloads::InstanceSpec> stream;
  const auto add = [&](int encs, int sorts) {
    for (int i = 0; i < encs; ++i) stream.push_back(enc);
    for (int i = 0; i < sorts; ++i) stream.push_back(sort);
  };
  add(6, 2);  // 11:5 in all: about 172 J/request
  add(5, 3);
  add(7, 1);  // 14:2 in all: about 276 J/request
  add(7, 1);
  add(7, 1);  // a 7:1 half: about 251 J/request
  add(4, 4);
  auto waiters = send(*backend, stream);
  backend->flush();
  EXPECT_EQ(collect(waiters).size(), waiters.size());
  // Every half batch waits: 6:2 and 7:1 cost more than 11:5, and the last
  // 7:1 costs less than the 14:2 before it but more than the mean of both.
  EXPECT_EQ(sizes(*backend),
            (std::vector<int>{kThreshold, kThreshold, kThreshold}));
  backend->shutdown();
}

TEST_F(CloseRuleTest, FreshBackendNeverClosesEarly) {
  const auto spec = workloads::kmeans_256k();
  auto backend = make_backend({spec});
  CloseCounts counts;
  auto waiters = send(*backend, repeat(spec, kThreshold - 1));
  backend->flush();
  EXPECT_EQ(collect(waiters).size(), waiters.size());
  // No batch has closed at the threshold, so there is nothing to compare
  // a half batch with: no check, and the flush takes all of it.
  EXPECT_EQ(sizes(*backend), (std::vector<int>{kThreshold - 1}));
  EXPECT_EQ(counts.delta(), (std::vector<double>{0, 0, 1, 0}));
  backend->shutdown();
}

TEST_F(CloseRuleTest, FlushAndShutdownCloseWhatIsPending) {
  const auto spec = workloads::kmeans_256k();
  auto backend = make_backend({spec});
  CloseCounts counts;
  auto waiters = send(*backend, repeat(spec, kThreshold + kHalf - 1));
  backend->flush();
  EXPECT_EQ(collect(waiters).size(), waiters.size());
  EXPECT_EQ(sizes(*backend), (std::vector<int>{kThreshold, kHalf - 1}));

  // Shutdown runs what is pending, too little to be checked.
  waiters = send(*backend, repeat(spec, 2), 100);
  backend->shutdown();
  EXPECT_EQ(collect(waiters).size(), waiters.size());
  EXPECT_EQ(sizes(*backend), (std::vector<int>{kThreshold, kHalf - 1, 2}));
  EXPECT_EQ(counts.delta(), (std::vector<double>{1, 0, 2, 0}));
}

TEST_F(CloseRuleTest, EarlyClosedGroupMatchesAFreshBackendsFlush) {
  const auto spec = workloads::kmeans_256k();
  auto gated = make_backend({spec});
  auto first = send(*gated, repeat(spec, kThreshold));
  EXPECT_EQ(collect(first).size(), first.size());
  // The same half batch (owners, ids, accounting) on both backends.
  auto early = send(*gated, repeat(spec, kHalf), 1000);
  const auto early_replies = collect(early);
  ASSERT_EQ(sizes(*gated), (std::vector<int>{kThreshold, kHalf}));

  auto fresh = make_backend({spec});
  auto flushed = send(*fresh, repeat(spec, kHalf), 1000);
  fresh->flush();
  const auto flushed_replies = collect(flushed);

  ASSERT_EQ(early_replies.size(), flushed_replies.size());
  for (std::size_t i = 0; i < early_replies.size(); ++i) {
    const auto& a = early_replies[i];
    const auto& b = flushed_replies[i];
    EXPECT_EQ(a.request_id, b.request_id);
    EXPECT_EQ(a.owner, b.owner);
    EXPECT_EQ(a.where, b.where);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.finish_time.seconds()),
              std::bit_cast<std::uint64_t>(b.finish_time.seconds()));
  }
  const BatchReport a = gated->reports().back();
  const BatchReport b = fresh->reports().back();
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
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
  ASSERT_TRUE(a.decision.has_value());
  ASSERT_TRUE(b.decision.has_value());
  EXPECT_EQ(a.decision->chosen, b.decision->chosen);
  gated->shutdown();
  fresh->shutdown();
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

TEST_F(CloseRuleTest, CheckMakesNoDecideFaultDraw) {
  const auto spec = workloads::kmeans_256k();
  auto backend = make_backend({spec});
  // The third decide draw fails. Groups draw once each, checks never: the
  // third group degrades. Had the check of the second batch drawn, the
  // second group would have.
  ArmGuard guard("decision.decide=fail:after=2:times=1", 0);
  ASSERT_TRUE(guard.armed());
  obs::Counter degraded =
      obs::Registry::instance().counter("server.degraded_decisions");
  const double degraded_before = degraded.value();
  auto waiters = send(*backend, repeat(spec, 3 * kThreshold));
  backend->flush();
  EXPECT_EQ(collect(waiters).size(), waiters.size());
  const auto reports = backend->reports();
  ASSERT_EQ(sizes(*backend),
            (std::vector<int>{kThreshold, kHalf, kHalf, kHalf, kHalf}));
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].degraded, i == 2) << "group " << i;
  }
  EXPECT_EQ(fault::Injector::instance().fired("decision.decide"), 1u);
  EXPECT_EQ(degraded.value() - degraded_before, 1.0);
  backend->shutdown();
}

TEST_F(CloseRuleTest, SeededDecideFaultsReplayUnchanged) {
  const auto spec = workloads::kmeans_256k();
  const std::string scenario = "decision.decide=fail:p=0.3";
  constexpr std::uint64_t kSeed = 11;
  constexpr int kDraws = 5;
  // The schedule the seed gives: which of the first draws fail.
  std::vector<bool> schedule;
  {
    ArmGuard guard(scenario, kSeed);
    for (int i = 0; i < kDraws; ++i) {
      schedule.push_back(fault::hit("decision.decide").kind ==
                         fault::ActionKind::kFail);
    }
  }
  auto backend = make_backend({spec});
  ArmGuard guard(scenario, kSeed);
  CloseCounts counts;
  auto waiters = send(*backend, repeat(spec, 3 * kThreshold));
  backend->flush();
  EXPECT_EQ(collect(waiters).size(), waiters.size());
  const auto reports = backend->reports();
  // The seed lets the first group decide, so the later batches are checked.
  EXPECT_GT(counts.delta()[1], 0.0);
  // One draw per group, in group order, as if no check had run.
  ASSERT_LE(reports.size(), schedule.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].degraded, schedule[i]) << "group " << i;
  }
  backend->shutdown();
}

}  // namespace
}  // namespace ewc::consolidate
