// Tests for the analytic performance model (paper Section V), including the
// headline property validated by Figures 3 and 4: prediction error against
// the (independent) dynamic simulator stays within the paper's bounds.
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "gpusim/engine.hpp"
#include "perf/analytic.hpp"
#include "perf/consolidation_model.hpp"
#include "workloads/paper_configs.hpp"

namespace ewc::perf {
namespace {

using gpusim::KernelDesc;
using gpusim::KernelInstance;
using gpusim::LaunchPlan;

KernelDesc kernel(const char* name, int blocks, double fp, double coal,
                  double uncoal = 0.0) {
  KernelDesc k;
  k.name = name;
  k.num_blocks = blocks;
  k.threads_per_block = 256;
  k.mix.fp_insts = fp;
  k.mix.int_insts = fp * 0.25;
  k.mix.coalesced_mem_insts = coal;
  k.mix.uncoalesced_mem_insts = uncoal;
  return k;
}

LaunchPlan plan_of(std::initializer_list<KernelDesc> descs) {
  LaunchPlan p;
  int id = 0;
  for (const auto& d : descs) p.instances.push_back(KernelInstance{d, id++, ""});
  return p;
}

// ---------------- single-kernel analytic model ----------------

TEST(AnalyticModel, ComputeBoundPredictionIsExactForUniformGrid) {
  AnalyticModel model;
  gpusim::FluidEngine engine;
  KernelDesc k = kernel("c", 30, 5.0e5, 0.0);
  const auto pred = model.predict(k);
  const auto meas = engine.run(plan_of({k}));
  EXPECT_NEAR(pred.kernel_time.seconds(), meas.kernel_time.seconds(),
              0.01 * meas.kernel_time.seconds());
}

TEST(AnalyticModel, PureComputeKernelNotMemoryBound) {
  AnalyticModel model;
  const auto pred = model.predict(kernel("c", 30, 1.0e5, 0.0));
  EXPECT_FALSE(pred.parallelism.memory_bound);
  EXPECT_GT(pred.execution_cycles, 0.0);
}

TEST(AnalyticModel, SaturatingStreamIsMemoryBound) {
  AnalyticModel model;
  const auto pred = model.predict(kernel("m", 240, 100.0, 5.0e4));
  EXPECT_TRUE(pred.parallelism.memory_bound);
}

TEST(AnalyticModel, MwpBoundedByActiveWarps) {
  AnalyticModel model;
  KernelDesc k = kernel("m", 1, 100.0, 1.0e4);
  auto wp = model.warp_parallelism(k, 4.0, 1);
  EXPECT_LE(wp.mwp, 4.0);
  EXPECT_LE(wp.cwp, 4.0);
}

TEST(AnalyticModel, BandwidthFractionSlowsMemoryBoundKernel) {
  AnalyticModel model;
  KernelDesc k = kernel("m", 240, 100.0, 5.0e4);
  const auto full = model.predict(k, 1.0);
  const auto half = model.predict(k, 0.5);
  EXPECT_GT(half.kernel_time.seconds(), 1.5 * full.kernel_time.seconds());
}

TEST(AnalyticModel, BandwidthFractionValidation) {
  AnalyticModel model;
  KernelDesc k = kernel("m", 1, 100.0, 10.0);
  EXPECT_THROW(model.predict(k, 0.0), std::invalid_argument);
  EXPECT_THROW(model.predict(k, 1.5), std::invalid_argument);
}

TEST(AnalyticModel, WavesCountResidencyLimit) {
  AnalyticModel model;
  KernelDesc k = kernel("c", 480, 1.0e4, 0.0);
  k.resources.registers_per_thread = 60;  // one block per SM
  const auto pred = model.predict(k);
  EXPECT_EQ(pred.waves, 16);  // 480 / 30
}

TEST(AnalyticModel, TransferTimesMatchDeviceModel) {
  AnalyticModel model;
  const auto& dev = model.device();
  auto t = model.h2d_time(common::Bytes::from_mib(10.0));
  EXPECT_NEAR(t.seconds(),
              10.0 * 1024 * 1024 / dev.pcie_h2d.bytes_per_second() +
                  dev.transfer_latency.seconds(),
              1e-12);
  EXPECT_EQ(model.h2d_time(common::Bytes::zero()).seconds(), 0.0);
}

TEST(AnalyticModel, SoloBlockTimePositiveAndMonotone) {
  AnalyticModel model;
  KernelDesc small = kernel("k", 1, 1.0e4, 100.0);
  KernelDesc big = small.with_work_scale(4.0);
  EXPECT_GT(model.solo_block_time(small).seconds(), 0.0);
  EXPECT_GT(model.solo_block_time(big).seconds(),
            model.solo_block_time(small).seconds());
}

// ---------------- prediction-vs-simulation error bounds ----------------
// Figure 3: type-1 consolidations; paper says the extension "is accurate".
// We require < 15% error across a sweep of pairings.

struct Type1Case {
  const char* label;
  KernelDesc a;
  KernelDesc b;
};

class Type1Accuracy : public ::testing::TestWithParam<int> {};

std::vector<Type1Case> type1_cases() {
  return {
      {"compute+compute", kernel("a", 10, 3.0e5, 0.0), kernel("b", 12, 2.0e5, 0.0)},
      {"compute+memory", kernel("a", 10, 3.0e5, 0.0), kernel("b", 12, 100.0, 2.0e4)},
      {"memory+memory", kernel("a", 14, 100.0, 2.0e4), kernel("b", 15, 100.0, 3.0e4)},
      {"uncoal+coal", kernel("a", 8, 100.0, 0.0, 600.0), kernel("b", 10, 100.0, 2.0e4)},
      {"small+large", kernel("a", 3, 1.0e5, 1.0e3), kernel("b", 25, 4.0e5, 5.0e3)},
  };
}

TEST_P(Type1Accuracy, PredictionWithin15Percent) {
  const auto c = type1_cases()[static_cast<std::size_t>(GetParam())];
  ConsolidationModel model;
  gpusim::FluidEngine engine;
  LaunchPlan plan = plan_of({c.a, c.b});
  ASSERT_EQ(model.classify(plan), ConsolidationType::kType1) << c.label;
  const auto pred = model.predict(plan);
  const auto meas = engine.run(plan);
  EXPECT_LT(common::relative_error(pred.kernel_time.seconds(),
                                   meas.kernel_time.seconds()),
            0.15)
      << c.label << ": predicted " << pred.kernel_time.seconds()
      << " measured " << meas.kernel_time.seconds();
}

INSTANTIATE_TEST_SUITE_P(Pairs, Type1Accuracy, ::testing::Range(0, 5));

// Figure 4: type-2 consolidations (the paper's two scenarios); error < 12%.

TEST(Type2Accuracy, Scenario1StylePrediction) {
  ConsolidationModel model;
  gpusim::FluidEngine engine;
  const auto mc = workloads::scenario1_montecarlo();
  const auto enc = workloads::scenario1_encryption();
  LaunchPlan plan = plan_of({mc.gpu, enc.gpu});
  ASSERT_EQ(model.classify(plan), ConsolidationType::kType2);
  const auto pred = model.predict(plan);
  const auto meas = engine.run(plan);
  EXPECT_LT(common::relative_error(pred.total_time.seconds(),
                                   meas.total_time.seconds()),
            0.12)
      << "predicted " << pred.total_time.seconds() << " measured "
      << meas.total_time.seconds();
}

TEST(Type2Accuracy, Scenario2StylePrediction) {
  ConsolidationModel model;
  gpusim::FluidEngine engine;
  const auto bs = workloads::scenario2_blackscholes();
  const auto s = workloads::scenario2_search();
  LaunchPlan plan = plan_of({bs.gpu, s.gpu});
  ASSERT_EQ(model.classify(plan), ConsolidationType::kType2);
  const auto pred = model.predict(plan);
  const auto meas = engine.run(plan);
  EXPECT_LT(common::relative_error(pred.total_time.seconds(),
                                   meas.total_time.seconds()),
            0.12);
}

// ---------------- classification & structure ----------------

TEST(ConsolidationModel, ClassifiesByBlocksPerSm) {
  ConsolidationModel model;
  EXPECT_EQ(model.classify(plan_of({kernel("a", 15, 1, 0), kernel("b", 15, 1, 0)})),
            ConsolidationType::kType1);
  EXPECT_EQ(model.classify(plan_of({kernel("a", 16, 1, 0), kernel("b", 15, 1, 0)})),
            ConsolidationType::kType2);
}

TEST(ConsolidationModel, EmptyPlanThrows) {
  ConsolidationModel model;
  EXPECT_THROW(model.predict(LaunchPlan{}), std::invalid_argument);
}

TEST(ConsolidationModel, Type1ReportsPerInstanceTimes) {
  ConsolidationModel model;
  auto pred = model.predict(plan_of({kernel("a", 5, 2.0e5, 0.0),
                                     kernel("b", 5, 1.0e5, 0.0)}));
  ASSERT_EQ(pred.per_instance.size(), 2u);
  EXPECT_GT(pred.per_instance[0].kernel_time.seconds(),
            pred.per_instance[1].kernel_time.seconds());
  // Consolidated time is the longest constituent.
  EXPECT_NEAR(pred.kernel_time.seconds(),
              pred.per_instance[0].kernel_time.seconds(), 1e-12);
}

TEST(ConsolidationModel, Type2IdentifiesCriticalSm) {
  ConsolidationModel model;
  // 31 equal blocks: one SM gets 2 blocks and must be critical.
  auto pred = model.predict(plan_of({kernel("a", 31, 2.0e5, 0.0)}));
  EXPECT_EQ(pred.type, ConsolidationType::kType2);
  EXPECT_EQ(pred.critical_sm_blocks.size(), 2u);

  // Overflow tie rule: with one resident block per SM, `a` fills SMs 0-29
  // and none of `b`'s blocks fits anywhere. Each goes to the lightest SM,
  // equal loads going to the lowest index, so b's 31st block lands back on
  // SM 0, which ends up critical with a's block and two of b's.
  gpusim::DeviceConfig one_per_sm = gpusim::tesla_c1060();
  one_per_sm.max_blocks_per_sm = 1;
  const ConsolidationModel overflow(one_per_sm);
  pred = overflow.predict(
      plan_of({kernel("a", 30, 2.0e5, 0.0), kernel("b", 31, 2.0e5, 0.0)}));
  EXPECT_EQ(pred.type, ConsolidationType::kType2);
  EXPECT_EQ(pred.critical_sm, 0);
  EXPECT_EQ(pred.critical_sm_blocks, (std::vector<int>{0, 1, 1}));
}

TEST(ConsolidationModel, SerialPredictionSumsInstances) {
  ConsolidationModel model;
  KernelDesc k = kernel("a", 10, 2.0e5, 1.0e3);
  std::vector<KernelInstance> insts{{k, 0, ""}, {k, 1, ""}};
  const auto serial = model.predict_serial(insts);
  const auto one = model.analytic().predict(k);
  EXPECT_NEAR(serial.seconds(), 2.0 * one.total_time.seconds(), 1e-9);
}

TEST(ConsolidationModel, HarmfulConsolidationPredictedHarmful) {
  // The decision-relevant property behind Table 2: the model must predict
  // that consolidating two memory-bound kernels is not faster than serial.
  ConsolidationModel model;
  const auto mc = workloads::scenario1_montecarlo();
  const auto enc = workloads::scenario1_encryption();
  LaunchPlan plan = plan_of({mc.gpu, enc.gpu});
  const auto consolidated = model.predict(plan);
  std::vector<KernelInstance> insts{{mc.gpu, 0, ""}, {enc.gpu, 1, ""}};
  const auto serial = model.predict_serial(insts);
  EXPECT_GT(consolidated.total_time.seconds(), 0.9 * serial.seconds());
}

TEST(ConsolidationModel, BeneficialConsolidationPredictedBeneficial) {
  // Scenario 2: consolidated time should be well under the serial sum.
  ConsolidationModel model;
  const auto bs = workloads::scenario2_blackscholes();
  const auto s = workloads::scenario2_search();
  LaunchPlan plan = plan_of({bs.gpu, s.gpu});
  const auto consolidated = model.predict(plan);
  std::vector<KernelInstance> insts{{bs.gpu, 0, ""}, {s.gpu, 1, ""}};
  const auto serial = model.predict_serial(insts);
  EXPECT_LT(consolidated.total_time.seconds(), 0.9 * serial.seconds());
}

// Homogeneous sweep (the Figure 3 experiment's backbone): prediction error
// for n consolidated encryption instances stays small as n grows.
class HomogeneousSweep : public ::testing::TestWithParam<int> {};

TEST_P(HomogeneousSweep, EncryptionConsolidationPrediction) {
  const int n = GetParam();
  ConsolidationModel model;
  gpusim::FluidEngine engine;
  const auto spec = workloads::encryption_12k();
  LaunchPlan plan;
  for (int i = 0; i < n; ++i) {
    plan.instances.push_back(KernelInstance{spec.gpu, i, ""});
  }
  const auto pred = model.predict(plan);
  const auto meas = engine.run(plan);
  EXPECT_LT(common::relative_error(pred.total_time.seconds(),
                                   meas.total_time.seconds()),
            0.15)
      << n << " instances";
}

INSTANTIATE_TEST_SUITE_P(Counts, HomogeneousSweep,
                         ::testing::Values(1, 2, 3, 5, 7, 9, 10, 12));

}  // namespace
}  // namespace ewc::perf
