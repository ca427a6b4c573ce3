// Tests for the consolidation framework: templates, decision engine,
// backend/frontend integration, overheads, and the experiment runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string_view>
#include <thread>

#include "consolidate/backend.hpp"
#include "consolidate/frontend.hpp"
#include "consolidate/runner.hpp"
#include "cudart/runtime.hpp"
#include "power/power_model.hpp"
#include "workloads/paper_configs.hpp"
#include "workloads/registry.hpp"

namespace ewc::consolidate {
namespace {

// Shared fixtures: engine + the pinned default-node power model.
class ConsolidateTest : public ::testing::Test {
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
  static gpusim::FluidEngine* engine_;
  static power::GpuPowerModel* model_;
};
gpusim::FluidEngine* ConsolidateTest::engine_ = nullptr;
power::GpuPowerModel* ConsolidateTest::model_ = nullptr;

// ---------------- templates ----------------

TEST(TemplateRegistry, FindsCoveringTemplate) {
  auto reg = TemplateRegistry::paper_defaults();
  EXPECT_NE(reg.find({"aes_encrypt"}), nullptr);
  EXPECT_NE(reg.find({"aes_encrypt", "aes_encrypt"}), nullptr);
  EXPECT_NE(reg.find({"search", "blackscholes"}), nullptr);
  EXPECT_NE(reg.find({"aes_encrypt", "montecarlo"}), nullptr);
}

TEST(TemplateRegistry, RejectsUncoveredSets) {
  auto reg = TemplateRegistry::paper_defaults();
  EXPECT_EQ(reg.find({"unknown_kernel"}), nullptr);
  // No template hosts search together with encryption in the paper set.
  EXPECT_EQ(reg.find({"search", "aes_encrypt"}), nullptr);
}

TEST(TemplateRegistry, PrefersNarrowestMatch) {
  TemplateRegistry reg;
  ConsolidationTemplate wide;
  wide.name = "wide";
  wide.kernels = {"a", "b", "c"};
  reg.add(wide);
  ConsolidationTemplate narrow;
  narrow.name = "narrow";
  narrow.kernels = {"a"};
  reg.add(narrow);
  const auto* t = reg.find({"a", "a"});
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->name, "narrow");
}

/// The batch partition as the backend computed it before candidate groups
/// carried template bitmasks, kept as the reference: every launch copies
/// its candidate group's names and scans every template for the narrowest
/// one covering them (first added among equals). `upgrades` and
/// `uncovered` count what the sequence exercised.
std::vector<std::pair<std::string, std::vector<std::size_t>>>
reference_partition(const std::vector<ConsolidationTemplate>& templates,
                    const std::vector<std::string>& names, int* upgrades,
                    int* uncovered) {
  const auto find = [&](const std::vector<std::string>& set) {
    const ConsolidationTemplate* best = nullptr;
    for (const auto& t : templates) {
      const bool covers =
          std::all_of(set.begin(), set.end(),
                      [&](const std::string& k) { return t.kernels.count(k); });
      if (covers &&
          (best == nullptr || t.kernels.size() < best->kernels.size())) {
        best = &t;
      }
    }
    return best;
  };
  struct Group {
    const ConsolidationTemplate* tmpl = nullptr;
    std::vector<std::string> names;
    std::vector<std::size_t> members;
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < names.size(); ++i) {
    bool placed = false;
    for (auto& g : groups) {
      if (g.tmpl == nullptr) continue;
      std::vector<std::string> candidate = g.names;
      candidate.push_back(names[i]);
      if (const ConsolidationTemplate* t = find(candidate)) {
        if (t != g.tmpl) ++*upgrades;
        g.tmpl = t;
        g.names = std::move(candidate);
        g.members.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) {
      Group g;
      g.names = {names[i]};
      g.tmpl = find(g.names);
      if (g.tmpl == nullptr) ++*uncovered;
      g.members.push_back(i);
      groups.push_back(std::move(g));
    }
  }
  std::vector<std::pair<std::string, std::vector<std::size_t>>> out;
  for (auto& g : groups) {
    out.emplace_back(g.tmpl ? g.tmpl->name : "", std::move(g.members));
  }
  return out;
}

// The bitmask partition must form exactly the reference's groups, with the
// same templates, over random template sets (past 64 templates, so masks
// span several words) and random name sequences with uncovered names.
TEST(TemplateRegistry, PartitionMatchesReferenceOnRandomSequences) {
  std::mt19937_64 rng(20111);
  const std::vector<std::string> alphabet = {"a", "b", "c", "d", "e",
                                             "f", "g", "h", "x", "y"};
  int upgrades = 0, uncovered = 0;
  for (int round = 0; round < 300; ++round) {
    std::vector<ConsolidationTemplate> templates;
    const int count = 1 + static_cast<int>(rng() % 80);
    for (int t = 0; t < count; ++t) {
      ConsolidationTemplate tmpl;
      tmpl.name = "t" + std::to_string(t);
      // "x" and "y" are never hosted.
      const int width = 1 + static_cast<int>(rng() % 4);
      for (int k = 0; k < width; ++k) tmpl.kernels.insert(alphabet[rng() % 8]);
      templates.push_back(std::move(tmpl));
    }
    TemplateRegistry reg;
    for (const auto& t : templates) reg.add(t);
    std::vector<std::string> names(rng() % 40);
    for (auto& n : names) n = alphabet[rng() % alphabet.size()];

    const auto expected =
        reference_partition(templates, names, &upgrades, &uncovered);
    const std::vector<std::string_view> views(names.begin(), names.end());
    const auto got = reg.partition(views);
    ASSERT_EQ(got.size(), expected.size()) << "round " << round;
    for (std::size_t g = 0; g < got.size(); ++g) {
      EXPECT_EQ(got[g].tmpl ? got[g].tmpl->name : "", expected[g].first)
          << "round " << round << " group " << g;
      EXPECT_EQ(got[g].members, expected[g].second)
          << "round " << round << " group " << g;
    }
  }
  EXPECT_GT(upgrades, 0);
  EXPECT_GT(uncovered, 0);
}

// ---------------- decision engine ----------------

TEST_F(ConsolidateTest, OverheadGrowsSuperlinearly) {
  DecisionEngine engine(engine_->device(), *model_, cpusim::CpuConfig{},
                        FrameworkCosts{});
  auto spec = workloads::encryption_12k();
  auto make = [&](int n) {
    auto insts = workloads::gpu_instances(spec, n);
    std::vector<std::size_t> staged(static_cast<std::size_t>(n), 12288);
    std::vector<int> messages(static_cast<std::size_t>(n), 7);
    return engine.overhead(insts, staged, messages, Optimizations{});
  };
  const double o2 = make(2).seconds();
  const double o4 = make(4).seconds();
  const double o8 = make(8).seconds();
  EXPECT_GT(o4, 2.0 * o2 * 0.9);
  EXPECT_GT(o8 - o4, o4 - o2);  // convex growth (staging rounds)
}

TEST_F(ConsolidateTest, LeaderElectionReducesHomogeneousOverhead) {
  DecisionEngine engine(engine_->device(), *model_, cpusim::CpuConfig{},
                        FrameworkCosts{});
  auto spec = workloads::encryption_12k();
  auto insts = workloads::gpu_instances(spec, 6);
  std::vector<std::size_t> staged(6, 12288);
  std::vector<int> messages(6, 7);
  Optimizations with;
  Optimizations without;
  without.leader_election = false;
  EXPECT_LT(engine.overhead(insts, staged, messages, with).seconds(),
            engine.overhead(insts, staged, messages, without).seconds());
}

TEST_F(ConsolidateTest, DecisionPrefersConsolidationForGoodCase) {
  DecisionEngine engine(engine_->device(), *model_, cpusim::CpuConfig{},
                        FrameworkCosts{});
  auto spec = workloads::encryption_12k();
  gpusim::LaunchPlan plan;
  std::vector<std::optional<cpusim::CpuTask>> profiles;
  for (int i = 0; i < 6; ++i) {
    plan.instances.push_back(gpusim::KernelInstance{spec.gpu, i, ""});
    auto t = spec.cpu;
    t.instance_id = i;
    profiles.emplace_back(t);
  }
  auto d = engine.decide(plan, profiles, common::Duration::from_seconds(0.5));
  EXPECT_EQ(d.chosen, Alternative::kConsolidatedGpu);
  EXPECT_EQ(d.estimates.size(), 3u);
  EXPECT_NO_THROW(d.chosen_estimate());
}

TEST_F(ConsolidateTest, DecisionRejectsHarmfulConsolidation) {
  // Scenario 1 (Table 2): consolidating the memory-bound MC with encryption
  // must NOT be chosen over the alternatives.
  DecisionEngine engine(engine_->device(), *model_, cpusim::CpuConfig{},
                        FrameworkCosts{});
  auto mc = workloads::scenario1_montecarlo();
  auto enc = workloads::scenario1_encryption();
  gpusim::LaunchPlan plan;
  plan.instances.push_back(gpusim::KernelInstance{mc.gpu, 0, ""});
  plan.instances.push_back(gpusim::KernelInstance{enc.gpu, 1, ""});
  std::vector<std::optional<cpusim::CpuTask>> profiles{mc.cpu, enc.cpu};
  auto d = engine.decide(plan, profiles, common::Duration::zero());
  EXPECT_NE(d.chosen, Alternative::kConsolidatedGpu);
}

TEST_F(ConsolidateTest, CpuChargeIsTheExecutedChargeBitForBit) {
  // Four small encryption launches are cheapest on the CPU. The CPU
  // estimate is the CpuEngine run the backend then executes, so its charge
  // is what the group adds to the energy total, bit for bit.
  BackendOptions options;
  options.batch_threshold = 4;
  const auto spec = workloads::encryption_6k();
  Backend backend(*engine_, *model_, TemplateRegistry::paper_defaults(),
                  options);
  backend.set_cpu_profile(spec.gpu.name, spec.cpu);
  auto replies = std::make_shared<ReplyChannel>();
  for (int i = 0; i < 4; ++i) {
    LaunchRequest req;
    req.owner = "u" + std::to_string(i);
    req.request_id = static_cast<std::uint64_t>(i);
    req.desc = spec.gpu;
    req.staged_bytes = 4096;
    req.api_messages = 4;
    req.reply = replies;
    ASSERT_TRUE(backend.channel().send(std::move(req)));
  }
  for (int i = 0; i < 4; ++i) {
    const auto reply =
        replies->receive_for(common::Duration::from_seconds(30.0));
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(reply->ok) << reply->error;
  }
  const auto reports = backend.reports();
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_TRUE(reports[0].decision.has_value());
  EXPECT_EQ(reports[0].executed, Alternative::kCpu);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(reports[0].decision->chosen_estimate().charge.joules()),
            bits(reports[0].energy.joules()));
  EXPECT_EQ(bits(backend.total_energy().joules()),
            bits(reports[0].energy.joules()));
  backend.shutdown();
}

TEST_F(ConsolidateTest, MissingCpuProfileMarksCpuInfeasible) {
  DecisionEngine engine(engine_->device(), *model_, cpusim::CpuConfig{},
                        FrameworkCosts{});
  auto spec = workloads::encryption_12k();
  gpusim::LaunchPlan plan;
  plan.instances.push_back(gpusim::KernelInstance{spec.gpu, 0, ""});
  std::vector<std::optional<cpusim::CpuTask>> profiles{std::nullopt};
  auto d = engine.decide(plan, profiles, common::Duration::zero());
  bool cpu_found = false;
  for (const auto& e : d.estimates) {
    if (e.which == Alternative::kCpu) {
      cpu_found = true;
      EXPECT_FALSE(e.feasible);
    }
  }
  EXPECT_TRUE(cpu_found);
}

TEST_F(ConsolidateTest, PolicyOverridesModel) {
  DecisionEngine engine(engine_->device(), *model_, cpusim::CpuConfig{},
                        FrameworkCosts{});
  auto mc = workloads::scenario1_montecarlo();
  auto enc = workloads::scenario1_encryption();
  gpusim::LaunchPlan plan;
  plan.instances.push_back(gpusim::KernelInstance{mc.gpu, 0, ""});
  plan.instances.push_back(gpusim::KernelInstance{enc.gpu, 1, ""});
  std::vector<std::optional<cpusim::CpuTask>> profiles{mc.cpu, enc.cpu};
  auto always = engine.decide(plan, profiles, common::Duration::zero(),
                              DecisionPolicy::kAlwaysConsolidate);
  EXPECT_EQ(always.chosen, Alternative::kConsolidatedGpu);
  auto never = engine.decide(plan, profiles, common::Duration::zero(),
                             DecisionPolicy::kNeverConsolidate);
  EXPECT_EQ(never.chosen, Alternative::kIndividualGpu);
}

TEST_F(ConsolidateTest, DecideValidatesInputs) {
  DecisionEngine engine(engine_->device(), *model_, cpusim::CpuConfig{},
                        FrameworkCosts{});
  gpusim::LaunchPlan empty;
  EXPECT_THROW(engine.decide(empty, {}, common::Duration::zero()),
               std::invalid_argument);
}

// ---------------- backend + frontend integration ----------------

TEST_F(ConsolidateTest, EndToEndDynamicConsolidation) {
  auto spec = workloads::encryption_12k();
  std::vector<WorkloadMix> mix{{spec, 6}};
  ExperimentRunner runner(*engine_, *model_);
  std::vector<BatchReport> reports;
  auto dyn = runner.run_dynamic(mix, &reports);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].num_instances, 6);
  EXPECT_TRUE(reports[0].template_found);
  EXPECT_EQ(reports[0].executed, Alternative::kConsolidatedGpu);
  EXPECT_GT(reports[0].overhead.seconds(), 0.0);
  EXPECT_GT(dyn.time.seconds(), reports[0].execution_time.seconds());
  EXPECT_GT(dyn.energy.joules(), 0.0);
}

TEST_F(ConsolidateTest, DynamicMatchesManualPlusOverhead) {
  auto spec = workloads::sorting_6k();
  std::vector<WorkloadMix> mix{{spec, 4}};
  ExperimentRunner runner(*engine_, *model_);
  auto manual = runner.run_manual(mix);
  std::vector<BatchReport> reports;
  auto dyn = runner.run_dynamic(mix, &reports);
  ASSERT_EQ(reports.size(), 1u);
  // Dynamic execution = consolidated run (with reuse) + overheads.
  EXPECT_NEAR(dyn.time.seconds(),
              manual.time.seconds() + reports[0].overhead.seconds(),
              0.1 * dyn.time.seconds());
}

TEST_F(ConsolidateTest, FrontendDataIntegrityThroughBackend) {
  BackendOptions options;
  options.batch_threshold = 1;
  Backend backend(*engine_, *model_, TemplateRegistry::paper_defaults(),
                  options);
  cudart::KernelRegistry registry;
  workloads::register_paper_kernels(registry);

  cudart::Context ctx("user0", 1 << 20);
  Frontend frontend(backend, "user0", &registry);
  ctx.set_interceptor(&frontend);
  cudart::Runtime runtime(*engine_, &registry);

  void* dev = nullptr;
  ASSERT_EQ(runtime.wcudaMalloc(ctx, &dev, 4096), cudart::wcudaError::kSuccess);
  std::vector<std::uint8_t> in(4096);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::uint8_t>(i * 13);
  }
  ASSERT_EQ(runtime.wcudaMemcpy(ctx, dev, in.data(), in.size(),
                                cudart::MemcpyKind::kHostToDevice),
            cudart::wcudaError::kSuccess);
  ASSERT_EQ(runtime.wcudaConfigureCall(ctx, {3, 1, 1}, {256, 1, 1}, 0),
            cudart::wcudaError::kSuccess);
  workloads::AesArgs args;
  ASSERT_EQ(runtime.wcudaSetupArgument(ctx, &args, sizeof args, 0),
            cudart::wcudaError::kSuccess);
  ASSERT_EQ(runtime.wcudaLaunch(ctx, "aes_encrypt"),
            cudart::wcudaError::kSuccess);
  EXPECT_TRUE(frontend.last_completion().ok);
  EXPECT_GT(frontend.last_completion().finish_time.seconds(), 0.0);

  std::vector<std::uint8_t> out(4096, 0);
  ASSERT_EQ(runtime.wcudaMemcpy(ctx, out.data(), dev, out.size(),
                                cudart::MemcpyKind::kDeviceToHost),
            cudart::wcudaError::kSuccess);
  EXPECT_EQ(in, out);  // staged through the backend buffer and back intact
  backend.shutdown();
}

TEST_F(ConsolidateTest, BatchThresholdTriggersProcessing) {
  BackendOptions options;
  options.batch_threshold = 3;
  Backend backend(*engine_, *model_, TemplateRegistry::paper_defaults(),
                  options);
  backend.set_cpu_profile("aes_encrypt", workloads::encryption_12k().cpu);
  cudart::KernelRegistry registry;
  workloads::register_paper_kernels(registry);
  cudart::Runtime runtime(*engine_, &registry);

  std::vector<std::thread> users;
  for (int u = 0; u < 3; ++u) {
    users.emplace_back([&, u] {
      cudart::Context ctx("user" + std::to_string(u), 1 << 20);
      Frontend fe(backend, ctx.owner(), &registry);
      ctx.set_interceptor(&fe);
      runtime.wcudaConfigureCall(ctx, {3, 1, 1}, {256, 1, 1}, 0);
      workloads::AesArgs args;
      runtime.wcudaSetupArgument(ctx, &args, sizeof args, 0);
      // Blocks until the batch of 3 is processed.
      EXPECT_EQ(runtime.wcudaLaunch(ctx, "aes_encrypt"),
                cudart::wcudaError::kSuccess);
    });
  }
  for (auto& t : users) t.join();
  auto reports = backend.reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].num_instances, 3);
  backend.shutdown();
}

TEST_F(ConsolidateTest, NoTemplateFallsBackToIndividual) {
  BackendOptions options;
  options.batch_threshold = 2;
  TemplateRegistry empty_templates;  // nothing is coverable
  Backend backend(*engine_, *model_, std::move(empty_templates), options);
  cudart::KernelRegistry registry;
  workloads::register_paper_kernels(registry);
  cudart::Runtime runtime(*engine_, &registry);

  std::vector<std::thread> users;
  for (int u = 0; u < 2; ++u) {
    users.emplace_back([&, u] {
      cudart::Context ctx("user" + std::to_string(u), 1 << 20);
      Frontend fe(backend, ctx.owner(), &registry);
      ctx.set_interceptor(&fe);
      runtime.wcudaConfigureCall(ctx, {3, 1, 1}, {256, 1, 1}, 0);
      workloads::AesArgs args;
      runtime.wcudaSetupArgument(ctx, &args, sizeof args, 0);
      EXPECT_EQ(runtime.wcudaLaunch(ctx, "aes_encrypt"),
                cudart::wcudaError::kSuccess);
      EXPECT_EQ(fe.last_completion().where,
                CompletionReply::Where::kIndividualGpu);
    });
  }
  for (auto& t : users) t.join();
  // With no templates, each uncovered request becomes its own
  // "run normally" group (paper Section VII).
  auto reports = backend.reports();
  ASSERT_EQ(reports.size(), 2u);
  for (const auto& r : reports) {
    EXPECT_FALSE(r.template_found);
    EXPECT_TRUE(r.template_name.empty());
    EXPECT_EQ(r.executed, Alternative::kIndividualGpu);
  }
  backend.shutdown();
}

TEST_F(ConsolidateTest, MixedBatchPartitionsByTemplateCoverage) {
  // search + blackscholes share a template; aes does not combine with them,
  // so one flush must yield two groups: {search,bs} consolidated-capable
  // and {aes,aes} under its homogeneous template.
  BackendOptions options;
  options.batch_threshold = 4;
  options.policy = DecisionPolicy::kAlwaysConsolidate;
  Backend backend(*engine_, *model_, TemplateRegistry::paper_defaults(),
                  options);
  cudart::KernelRegistry registry;
  workloads::register_paper_kernels(registry);
  cudart::Runtime runtime(*engine_, &registry);

  auto user = [&](int slot, const char* kernel, unsigned blocks) {
    cudart::Context ctx("user" + std::to_string(slot), 1 << 20);
    Frontend fe(backend, ctx.owner(), &registry);
    ctx.set_interceptor(&fe);
    runtime.wcudaConfigureCall(ctx, {blocks, 1, 1}, {256, 1, 1}, 0);
    // A zeroed block large enough for every factory's argument struct; the
    // grid configuration overrides the block counts anyway.
    std::array<std::byte, 32> args{};
    runtime.wcudaSetupArgument(ctx, args.data(), args.size(), 0);
    EXPECT_EQ(runtime.wcudaLaunch(ctx, kernel), cudart::wcudaError::kSuccess);
  };
  std::vector<std::thread> users;
  users.emplace_back(user, 0, "search", 10u);
  users.emplace_back(user, 1, "blackscholes", 1u);
  users.emplace_back(user, 2, "aes_encrypt", 3u);
  users.emplace_back(user, 3, "aes_encrypt", 3u);
  for (auto& t : users) t.join();

  auto reports = backend.reports();
  ASSERT_EQ(reports.size(), 2u);
  std::set<std::string> template_names;
  int total = 0;
  for (const auto& r : reports) {
    EXPECT_TRUE(r.template_found);
    template_names.insert(r.template_name);
    total += r.num_instances;
  }
  EXPECT_EQ(total, 4);
  EXPECT_TRUE(template_names.count("aes_encrypt_homogeneous"));
  EXPECT_TRUE(template_names.count("search_blackscholes"));
  backend.shutdown();
}

TEST_F(ConsolidateTest, TemplateCapacitySplitsLaunches) {
  // 90 encryption instances x 3 blocks = 270 blocks > the 240-block template
  // capacity: the backend must split into two consolidated launches.
  auto spec = workloads::encryption_12k();
  std::vector<WorkloadMix> mix{{spec, 90}};
  ExperimentRunner runner(*engine_, *model_);
  std::vector<BatchReport> reports;
  runner.run_dynamic(mix, &reports);
  ASSERT_EQ(reports.size(), 1u);
  if (reports[0].executed == Alternative::kConsolidatedGpu) {
    EXPECT_GE(reports[0].consolidated_launches, 2);
  }
}

TEST_F(ConsolidateTest, FlushProcessesPartialBatch) {
  BackendOptions options;
  options.batch_threshold = 100;  // never reached
  Backend backend(*engine_, *model_, TemplateRegistry::paper_defaults(),
                  options);
  cudart::KernelRegistry registry;
  workloads::register_paper_kernels(registry);
  cudart::Runtime runtime(*engine_, &registry);

  std::thread user([&] {
    cudart::Context ctx("user0", 1 << 20);
    Frontend fe(backend, "user0", &registry);
    ctx.set_interceptor(&fe);
    runtime.wcudaConfigureCall(ctx, {3, 1, 1}, {256, 1, 1}, 0);
    workloads::AesArgs args;
    runtime.wcudaSetupArgument(ctx, &args, sizeof args, 0);
    runtime.wcudaLaunch(ctx, "aes_encrypt");
  });
  // Wait for the request to be pending, then flush.
  while (backend.channel().size() > 0 || backend.reports().empty()) {
    backend.flush();
    if (!backend.reports().empty()) break;
    std::this_thread::yield();
  }
  user.join();
  EXPECT_EQ(backend.reports().size(), 1u);
  backend.shutdown();
}

// ---------------- failure injection ----------------

TEST_F(ConsolidateTest, LaunchAfterShutdownFailsCleanly) {
  BackendOptions options;
  options.batch_threshold = 1;
  Backend backend(*engine_, *model_, TemplateRegistry::paper_defaults(),
                  options);
  backend.shutdown();

  cudart::KernelRegistry registry;
  workloads::register_paper_kernels(registry);
  cudart::Context ctx("late-user", 1 << 20);
  Frontend fe(backend, "late-user", &registry);
  ctx.set_interceptor(&fe);
  cudart::Runtime runtime(*engine_, &registry);
  ASSERT_EQ(runtime.wcudaConfigureCall(ctx, {3, 1, 1}, {256, 1, 1}, 0),
            cudart::wcudaError::kSuccess);
  workloads::AesArgs args;
  ASSERT_EQ(runtime.wcudaSetupArgument(ctx, &args, sizeof args, 0),
            cudart::wcudaError::kSuccess);
  EXPECT_EQ(runtime.wcudaLaunch(ctx, "aes_encrypt"),
            cudart::wcudaError::kLaunchFailure);
}

TEST_F(ConsolidateTest, ShutdownDrainsPendingLaunches) {
  BackendOptions options;
  options.batch_threshold = 100;  // never reached on its own
  Backend backend(*engine_, *model_, TemplateRegistry::paper_defaults(),
                  options);
  backend.set_cpu_profile("aes_encrypt", workloads::encryption_12k().cpu);

  // Enqueue a launch directly, then shut down with it pending: the backend
  // must still execute the batch and answer the reply channel.
  LaunchRequest req;
  req.owner = "u0";
  req.desc = workloads::encryption_12k().gpu;
  req.staged_bytes = 12288;
  req.api_messages = 5;
  req.reply = std::make_shared<ReplyChannel>();
  ASSERT_TRUE(backend.channel().send(req));
  backend.shutdown();

  auto reply = req.reply->try_receive();
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->ok);
  EXPECT_EQ(backend.reports().size(), 1u);
}

TEST_F(ConsolidateTest, FrontendRejectsBadMemoryOps) {
  BackendOptions options;
  Backend backend(*engine_, *model_, TemplateRegistry::paper_defaults(),
                  options);
  cudart::KernelRegistry registry;
  workloads::register_paper_kernels(registry);
  cudart::Context ctx("u", 1 << 20);
  Frontend fe(backend, "u", &registry);
  ctx.set_interceptor(&fe);
  cudart::Runtime runtime(*engine_, &registry);

  int local = 0;
  std::uint8_t buf[16];
  // Copy to a pointer the backend never allocated.
  EXPECT_EQ(runtime.wcudaMemcpy(ctx, &local, buf, 4,
                                cudart::MemcpyKind::kHostToDevice),
            cudart::wcudaError::kInvalidDevicePointer);
  // Launch without configuration.
  EXPECT_EQ(runtime.wcudaLaunch(ctx, "aes_encrypt"),
            cudart::wcudaError::kInvalidConfiguration);
  // Unknown kernel.
  ASSERT_EQ(runtime.wcudaConfigureCall(ctx, {1, 1, 1}, {64, 1, 1}, 0),
            cudart::wcudaError::kSuccess);
  EXPECT_EQ(runtime.wcudaLaunch(ctx, "not_a_kernel"),
            cudart::wcudaError::kUnknownKernel);
  backend.shutdown();
}

TEST_F(ConsolidateTest, FrontendMemcpyOverrunRejected) {
  BackendOptions options;
  Backend backend(*engine_, *model_, TemplateRegistry::paper_defaults(),
                  options);
  cudart::KernelRegistry registry;
  workloads::register_paper_kernels(registry);
  cudart::Context ctx("u", 1 << 20);
  Frontend fe(backend, "u", &registry);
  ctx.set_interceptor(&fe);
  cudart::Runtime runtime(*engine_, &registry);

  void* dev = nullptr;
  ASSERT_EQ(runtime.wcudaMalloc(ctx, &dev, 16), cudart::wcudaError::kSuccess);
  std::vector<std::uint8_t> big(64, 1);
  EXPECT_EQ(runtime.wcudaMemcpy(ctx, dev, big.data(), 64,
                                cudart::MemcpyKind::kHostToDevice),
            cudart::wcudaError::kInvalidValue);
  backend.shutdown();
}

TEST_F(ConsolidateTest, MultipleBatchesAccumulateReports) {
  BackendOptions options;
  options.batch_threshold = 2;
  Backend backend(*engine_, *model_, TemplateRegistry::paper_defaults(),
                  options);
  backend.set_cpu_profile("aes_encrypt", workloads::encryption_12k().cpu);
  cudart::KernelRegistry registry;
  workloads::register_paper_kernels(registry);
  cudart::Runtime runtime(*engine_, &registry);

  for (int round = 0; round < 3; ++round) {
    std::vector<std::thread> users;
    for (int u = 0; u < 2; ++u) {
      users.emplace_back([&, u] {
        cudart::Context ctx("r" + std::to_string(u), 1 << 20);
        Frontend fe(backend, ctx.owner(), &registry);
        ctx.set_interceptor(&fe);
        runtime.wcudaConfigureCall(ctx, {3, 1, 1}, {256, 1, 1}, 0);
        workloads::AesArgs args;
        runtime.wcudaSetupArgument(ctx, &args, sizeof args, 0);
        EXPECT_EQ(runtime.wcudaLaunch(ctx, "aes_encrypt"),
                  cudart::wcudaError::kSuccess);
      });
    }
    for (auto& t : users) t.join();
  }
  // The first round closes at the threshold. After it, a lone encryption
  // launch is predicted to charge less than a pair of them per request, so
  // each later launch closes its batch at half the threshold.
  std::vector<int> sizes;
  for (const auto& r : backend.reports()) sizes.push_back(r.num_instances);
  EXPECT_EQ(sizes, (std::vector<int>{2, 1, 1, 1, 1}));
  // Totals accumulate across batches.
  EXPECT_GT(backend.total_time().seconds(), 0.0);
  EXPECT_GT(backend.total_energy().joules(), 0.0);
  backend.shutdown();
}

// ---------------- the four-setup comparison (paper Section VIII) ----------

TEST_F(ConsolidateTest, FourSetupOrderingForHomogeneousEncryption) {
  ExperimentRunner runner(*engine_, *model_);
  std::vector<WorkloadMix> mix{{workloads::encryption_12k(), 6}};
  auto r = runner.compare(mix);
  // Serial GPU is worst; manual consolidation is best; dynamic sits between
  // manual and serial; consolidation beats the CPU (the paper's headline).
  EXPECT_GT(r.serial_gpu.time.seconds(), r.cpu.time.seconds());
  EXPECT_LT(r.manual.time.seconds(), r.dynamic_framework.time.seconds());
  EXPECT_LT(r.dynamic_framework.time.seconds(), r.cpu.time.seconds());
  EXPECT_LT(r.dynamic_framework.energy.joules(), r.cpu.energy.joules());
  EXPECT_LT(r.dynamic_framework.energy.joules(), r.serial_gpu.energy.joules());
}

TEST_F(ConsolidateTest, HeterogeneousSearchBlackScholesBenefits) {
  // Tables 5/6 shape: consolidation wins big for 1S+10B.
  ExperimentRunner runner(*engine_, *model_);
  std::vector<WorkloadMix> mix{{workloads::t56_search(), 1},
                               {workloads::t56_blackscholes(), 10}};
  auto r = runner.compare(mix);
  EXPECT_LT(r.dynamic_framework.time.seconds(), 0.5 * r.cpu.time.seconds());
  EXPECT_LT(r.dynamic_framework.energy.joules(), 0.5 * r.cpu.energy.joules());
  EXPECT_LT(r.dynamic_framework.time.seconds(),
            0.5 * r.serial_gpu.time.seconds());
}

TEST_F(ConsolidateTest, ClosedChannelFailsPendingRepliesInsteadOfDropping) {
  // Regression: a channel closed under a non-empty pending batch (no
  // ShutdownRequest — e.g. a crashing embedder) used to silently drop the
  // batch, leaving every waiting frontend blocked forever. The backend must
  // answer each reply channel with an error.
  const auto spec = workloads::encryption_12k();
  BackendOptions options;
  options.batch_threshold = 100;  // launches stay pending
  auto templates = TemplateRegistry::paper_defaults();
  Backend backend(*engine_, *model_, std::move(templates), options);

  std::vector<std::shared_ptr<ReplyChannel>> waiters;
  for (int i = 0; i < 3; ++i) {
    LaunchRequest req;
    req.owner = "victim#000" + std::to_string(i);
    req.desc = spec.gpu;
    req.api_messages = 1;
    req.reply = std::make_shared<ReplyChannel>();
    waiters.push_back(req.reply);
    ASSERT_TRUE(backend.channel().send(std::move(req)));
  }
  backend.channel().close();  // no ShutdownRequest: abnormal teardown

  for (auto& waiter : waiters) {
    const auto reply = waiter->receive_for(common::Duration::from_seconds(30.0));
    ASSERT_TRUE(reply.has_value()) << "reply channel never answered";
    EXPECT_FALSE(reply->ok);
    EXPECT_NE(reply->error.find("closed"), std::string::npos) << reply->error;
  }
}

TEST_F(ConsolidateTest, BackendEchoesRequestIdsIntoReplies) {
  const auto spec = workloads::encryption_12k();
  BackendOptions options;
  options.batch_threshold = 2;
  auto templates = TemplateRegistry::paper_defaults();
  Backend backend(*engine_, *model_, std::move(templates), options);
  backend.set_cpu_profile(spec.gpu.name, spec.cpu);

  auto replies = std::make_shared<ReplyChannel>();
  for (std::uint64_t id : {1001ull, 1002ull}) {
    LaunchRequest req;
    req.owner = "echo#" + std::to_string(id);
    req.request_id = id;
    req.desc = spec.gpu;
    req.api_messages = 1;
    req.reply = replies;
    ASSERT_TRUE(backend.channel().send(std::move(req)));
  }
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2; ++i) {
    const auto reply =
        replies->receive_for(common::Duration::from_seconds(30.0));
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(reply->ok) << reply->error;
    seen.insert(reply->request_id);
  }
  EXPECT_EQ(seen, (std::set<std::uint64_t>{1001, 1002}));
}

}  // namespace
}  // namespace ewc::consolidate
