// Remaining-path coverage: RunResult aggregation, frontend free/CPU routing,
// template capacities, and small utility behaviours not covered elsewhere.
#include <gtest/gtest.h>

#include "consolidate/backend.hpp"
#include "consolidate/frontend.hpp"
#include "cudart/runtime.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/metrics.hpp"
#include "power/power_model.hpp"
#include "workloads/paper_configs.hpp"
#include "workloads/registry.hpp"

namespace ewc {
namespace {

// ---------------- RunResult::append ----------------

TEST(RunResultAppend, AccumulatesAndOffsets) {
  gpusim::RunResult a, b;
  a.total_time = common::Duration::from_seconds(2.0);
  a.kernel_time = common::Duration::from_seconds(1.5);
  a.system_energy = common::Energy::from_joules(100.0);
  a.avg_dram_utilization = 0.5;
  a.avg_sm_utilization = 0.4;
  a.power_segments.push_back(
      {common::Duration::zero(), common::Duration::from_seconds(2.0),
       common::Power::from_watts(50.0)});
  a.completions.push_back({1, "k", common::Duration::from_seconds(2.0)});

  b = a;
  b.avg_dram_utilization = 1.0;
  a.append(b);

  EXPECT_DOUBLE_EQ(a.total_time.seconds(), 4.0);
  EXPECT_DOUBLE_EQ(a.system_energy.joules(), 200.0);
  // Time-weighted utilization mean of 0.5 and 1.0 over equal kernel times.
  EXPECT_NEAR(a.avg_dram_utilization, 0.75, 1e-12);
  ASSERT_EQ(a.power_segments.size(), 2u);
  EXPECT_DOUBLE_EQ(a.power_segments[1].start.seconds(), 2.0);
  ASSERT_EQ(a.completions.size(), 2u);
  EXPECT_DOUBLE_EQ(a.completions[1].finish_time.seconds(), 4.0);
  EXPECT_DOUBLE_EQ(a.avg_system_power.watts(), 50.0);
}

TEST(RunResultAppend, EmptyPlusRunEqualsRun) {
  gpusim::FluidEngine engine;
  gpusim::KernelDesc k;
  k.name = "k";
  k.num_blocks = 5;
  k.threads_per_block = 128;
  k.mix.fp_insts = 1e4;
  gpusim::LaunchPlan plan;
  plan.instances.push_back(gpusim::KernelInstance{k, 0, ""});
  const auto run = engine.run(plan);

  gpusim::RunResult acc;
  acc.sm_stats.resize(run.sm_stats.size());
  acc.append(run);
  EXPECT_DOUBLE_EQ(acc.total_time.seconds(), run.total_time.seconds());
  EXPECT_DOUBLE_EQ(acc.system_energy.joules(), run.system_energy.joules());
  EXPECT_EQ(acc.completions.size(), run.completions.size());
}

// ---------------- KernelDesc odds and ends ----------------

TEST(KernelDescMisc, EffectiveMlpOverride) {
  gpusim::DeviceConfig dev;
  gpusim::KernelDesc k;
  EXPECT_DOUBLE_EQ(k.effective_mlp(dev), dev.memory_level_parallelism);
  k.mlp = 1.5;
  EXPECT_DOUBLE_EQ(k.effective_mlp(dev), 1.5);
}

TEST(KernelDescMisc, D2hTransferCharged) {
  gpusim::FluidEngine engine;
  gpusim::KernelDesc k;
  k.name = "k";
  k.num_blocks = 1;
  k.threads_per_block = 32;
  k.mix.int_insts = 10.0;
  k.d2h_bytes = common::Bytes::from_mib(50.0);
  gpusim::LaunchPlan plan;
  plan.instances.push_back(gpusim::KernelInstance{k, 0, ""});
  const auto run = engine.run(plan);
  const double expect =
      50.0 * 1024 * 1024 / engine.device().pcie_d2h.bytes_per_second() +
      engine.device().transfer_latency.seconds();
  EXPECT_NEAR(run.d2h_time.seconds(), expect, 1e-9);
}

// ---------------- frontend free + CPU routing ----------------

class MiscFrameworkTest : public ::testing::Test {
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
gpusim::FluidEngine* MiscFrameworkTest::engine_ = nullptr;
power::GpuPowerModel* MiscFrameworkTest::model_ = nullptr;

TEST_F(MiscFrameworkTest, FrontendFreeReleasesBackendMemory) {
  consolidate::BackendOptions options;
  consolidate::Backend backend(*engine_, *model_,
                               consolidate::TemplateRegistry::paper_defaults(),
                               options);
  cudart::KernelRegistry registry;
  workloads::register_paper_kernels(registry);
  cudart::Context ctx("u", 1 << 20);
  consolidate::Frontend fe(backend, "u", &registry);
  ctx.set_interceptor(&fe);
  cudart::Runtime runtime(*engine_, &registry);

  void* dev = nullptr;
  ASSERT_EQ(runtime.wcudaMalloc(ctx, &dev, 2048), cudart::wcudaError::kSuccess);
  EXPECT_EQ(backend.device_context().bytes_in_use(), 2048u);
  ASSERT_EQ(runtime.wcudaFree(ctx, dev), cudart::wcudaError::kSuccess);
  EXPECT_EQ(backend.device_context().bytes_in_use(), 0u);
  EXPECT_EQ(runtime.wcudaFree(ctx, dev),
            cudart::wcudaError::kInvalidDevicePointer);
  backend.shutdown();
}

TEST_F(MiscFrameworkTest, TinyBatchRoutedToCpuAndReplySaysSo) {
  // One small (6 KB) encryption request: the CPU wins even with the idle
  // GPU's draw through the CPU run charged, so the model-based policy must
  // route it there and tell the frontend. (A 12 KB request no longer does:
  // that draw makes the GPU about 8% cheaper.)
  consolidate::BackendOptions options;
  options.batch_threshold = 1;
  consolidate::Backend backend(*engine_, *model_,
                               consolidate::TemplateRegistry::paper_defaults(),
                               options);
  backend.set_cpu_profile("aes_encrypt", workloads::encryption_6k().cpu);
  cudart::KernelRegistry registry;
  registry.register_kernel(
      "aes_encrypt",
      [](const cudart::LaunchConfig&, std::span<const std::byte>) {
        return workloads::encryption_6k().gpu;
      });
  cudart::Context ctx("u", 1 << 20);
  consolidate::Frontend fe(backend, "u", &registry);
  ctx.set_interceptor(&fe);
  cudart::Runtime runtime(*engine_, &registry);

  ASSERT_EQ(runtime.wcudaConfigureCall(ctx, {3, 1, 1}, {256, 1, 1}, 0),
            cudart::wcudaError::kSuccess);
  ASSERT_EQ(runtime.wcudaLaunch(ctx, "aes_encrypt"),
            cudart::wcudaError::kSuccess);
  EXPECT_EQ(fe.last_completion().where,
            consolidate::CompletionReply::Where::kCpu);
  auto reports = backend.reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].executed, consolidate::Alternative::kCpu);
  backend.shutdown();
}

TEST(TemplateRegistryMisc, HomogeneousCapacityRespected) {
  consolidate::TemplateRegistry reg;
  reg.add_homogeneous("k", 60);
  const auto* t = reg.find({"k"});
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->max_total_blocks, 60);
  EXPECT_EQ(t->name, "k_homogeneous");
}

// ---------------- enterprise spec catalogue ----------------

TEST(EnterpriseSpecs, CatalogueIsRunnable) {
  gpusim::FluidEngine engine;
  const auto specs = workloads::enterprise_specs();
  EXPECT_EQ(specs.size(), 8u);
  std::set<std::string> names;
  for (const auto& s : specs) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
    EXPECT_GT(s.paper_gpu_seconds, 0.0) << s.name;
    EXPECT_GT(s.cpu.core_seconds, 0.0) << s.name;
    gpusim::LaunchPlan plan;
    plan.instances.push_back(gpusim::KernelInstance{s.gpu, 0, ""});
    EXPECT_NO_THROW(engine.run(plan)) << s.name;
  }
}

TEST(EnterpriseSpecs, FirstPrinciplesSecondsMatchSimulator) {
  gpusim::FluidEngine engine;
  for (const auto& s : {workloads::kmeans_256k(), workloads::sha256_64k(),
                        workloads::compression_64m()}) {
    gpusim::LaunchPlan plan;
    plan.instances.push_back(gpusim::KernelInstance{s.gpu, 0, ""});
    const auto run = engine.run(plan);
    EXPECT_NEAR(run.total_time.seconds(), s.paper_gpu_seconds,
                1e-6 * s.paper_gpu_seconds)
        << s.name;
  }
}

}  // namespace
}  // namespace ewc
