// End-to-end integration tests: the paper's headline claims, asserted.
//
// Each test reproduces one evaluation-level statement from the paper and
// checks the *shape* (who wins, direction of crossovers, error bounds) —
// the same contract EXPERIMENTS.md documents.
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "consolidate/runner.hpp"
#include "cpusim/engine.hpp"
#include "gpusim/engine.hpp"
#include "perf/consolidation_model.hpp"
#include "power/meter.hpp"
#include "power/power_model.hpp"
#include "workloads/paper_configs.hpp"

namespace ewc {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new gpusim::FluidEngine();
    model_ = new power::GpuPowerModel(power::default_device_model());
    runner_ = new consolidate::ExperimentRunner(*engine_, *model_);
  }
  static void TearDownTestSuite() {
    delete runner_;
    delete model_;
    delete engine_;
    runner_ = nullptr;
    model_ = nullptr;
    engine_ = nullptr;
  }
  static gpusim::FluidEngine* engine_;
  static power::GpuPowerModel* model_;
  static consolidate::ExperimentRunner* runner_;
};
gpusim::FluidEngine* IntegrationTest::engine_ = nullptr;
power::GpuPowerModel* IntegrationTest::model_ = nullptr;
consolidate::ExperimentRunner* IntegrationTest::runner_ = nullptr;

// ---- Figure 1 / Figure 7: homogeneous encryption ----

TEST_F(IntegrationTest, SingleEncryptionInstanceLosesToCpu) {
  // Paper: one 12 KB instance is ~16% slower on GPU and costs ~1.5x energy.
  std::vector<consolidate::WorkloadMix> mix{{workloads::encryption_12k(), 1}};
  const auto cpu = runner_->run_cpu(mix);
  const auto gpu = runner_->run_serial(mix);
  EXPECT_GT(gpu.time.seconds(), cpu.time.seconds() * 1.1);
  EXPECT_GT(gpu.energy.joules(), cpu.energy.joules() * 1.15);
}

TEST_F(IntegrationTest, NineConsolidatedEncryptionsBeatCpuOnTimeAndEnergy) {
  std::vector<consolidate::WorkloadMix> mix{{workloads::encryption_12k(), 9}};
  const auto r = runner_->compare(mix);
  // Paper: 68% less time, 29% energy savings; we require the direction and
  // at least the paper's magnitudes.
  EXPECT_LT(r.dynamic_framework.time.seconds(), 0.6 * r.cpu.time.seconds());
  EXPECT_LT(r.dynamic_framework.energy.joules(), 0.71 * r.cpu.energy.joules());
}

TEST_F(IntegrationTest, SerialGpuScalesLinearlyAndLosesEverywhere) {
  const auto spec = workloads::encryption_12k();
  std::vector<consolidate::WorkloadMix> one{{spec, 1}};
  std::vector<consolidate::WorkloadMix> six{{spec, 6}};
  const auto s1 = runner_->run_serial(one);
  const auto s6 = runner_->run_serial(six);
  EXPECT_NEAR(s6.time.seconds(), 6.0 * s1.time.seconds(), 1e-6);
  const auto c6 = runner_->compare(six);
  EXPECT_GT(c6.serial_gpu.time.seconds(), c6.cpu.time.seconds());
  EXPECT_GT(c6.serial_gpu.time.seconds(), c6.manual.time.seconds());
}

TEST_F(IntegrationTest, ManualConsolidationTimeNearlyFlatUpTo9) {
  const auto spec = workloads::encryption_12k();
  std::vector<consolidate::WorkloadMix> one{{spec, 1}};
  std::vector<consolidate::WorkloadMix> nine{{spec, 9}};
  const double t1 = runner_->run_manual(one).time.seconds();
  const double t9 = runner_->run_manual(nine).time.seconds();
  EXPECT_LT(t9, 1.25 * t1);
}

TEST_F(IntegrationTest, FrameworkOverheadGrowsSuperlinearly) {
  const auto spec = workloads::encryption_12k();
  auto dyn = [&](int n) {
    std::vector<consolidate::WorkloadMix> mix{{spec, n}};
    std::vector<consolidate::BatchReport> reports;
    runner_->run_dynamic(mix, &reports);
    return reports.front().overhead.seconds();
  };
  const double o3 = dyn(3), o6 = dyn(6), o12 = dyn(12);
  EXPECT_GT(o6 / o3, 1.8);
  EXPECT_GT(o12 / o6, 2.0);  // superlinear: doubling n more than doubles cost
}

// ---- Tables 2 & 3: scenarios ----

TEST_F(IntegrationTest, Scenario1ConsolidationIsHarmful) {
  const auto mc = workloads::scenario1_montecarlo();
  const auto enc = workloads::scenario1_encryption();
  gpusim::LaunchPlan both;
  both.instances.push_back(gpusim::KernelInstance{mc.gpu, 0, ""});
  both.instances.push_back(gpusim::KernelInstance{enc.gpu, 1, ""});
  const auto consolidated = engine_->run(both);
  const auto serial = engine_->run_serial(
      {gpusim::KernelInstance{mc.gpu, 0, ""},
       gpusim::KernelInstance{enc.gpu, 1, ""}});
  EXPECT_GT(consolidated.total_time.seconds(), serial.total_time.seconds());
  EXPECT_GT(consolidated.system_energy.joules(),
            serial.system_energy.joules());
}

TEST_F(IntegrationTest, Scenario2ConsolidationIsBeneficial) {
  const auto bs = workloads::scenario2_blackscholes();
  const auto s = workloads::scenario2_search();
  gpusim::LaunchPlan both;
  both.instances.push_back(gpusim::KernelInstance{bs.gpu, 0, ""});
  both.instances.push_back(gpusim::KernelInstance{s.gpu, 1, ""});
  const auto consolidated = engine_->run(both);
  const auto serial = engine_->run_serial(
      {gpusim::KernelInstance{bs.gpu, 0, ""},
       gpusim::KernelInstance{s.gpu, 1, ""}});
  EXPECT_LT(consolidated.total_time.seconds(),
            0.9 * serial.total_time.seconds());
  EXPECT_LT(consolidated.system_energy.joules(),
            serial.system_energy.joules());
  // And only a little longer than the longer constituent (paper: 58.7 vs 49.2).
  gpusim::LaunchPlan s_only;
  s_only.instances.push_back(gpusim::KernelInstance{s.gpu, 0, ""});
  const auto just_s = engine_->run(s_only);
  EXPECT_LT(consolidated.total_time.seconds(),
            1.4 * just_s.total_time.seconds());
}

// ---- Figures 3/4/5: model accuracy over the evaluation space ----

TEST_F(IntegrationTest, TimePredictionWithin12PercentAcrossMixes) {
  perf::ConsolidationModel model(engine_->device());
  const auto enc = workloads::encryption_12k();
  const auto srt = workloads::sorting_6k();
  const auto s = workloads::t56_search();
  const auto bs = workloads::t56_blackscholes();
  const auto e = workloads::t78_encryption();
  const auto m = workloads::t78_montecarlo();
  std::vector<std::vector<std::pair<const workloads::InstanceSpec*, int>>>
      mixes = {{{&enc, 4}},          {{&srt, 7}},
               {{&s, 1}, {&bs, 10}}, {{&e, 5}, {&m, 15}},
               {{&enc, 3}, {&srt, 3}}, {{&s, 2}, {&bs, 20}}};
  for (const auto& mix : mixes) {
    gpusim::LaunchPlan plan;
    int id = 0;
    for (const auto& [spec, n] : mix) {
      for (int i = 0; i < n; ++i) {
        plan.instances.push_back(gpusim::KernelInstance{spec->gpu, id++, ""});
      }
    }
    const auto run = engine_->run(plan);
    const auto pred = model.predict(plan);
    EXPECT_LT(common::relative_error(pred.total_time.seconds(),
                                     run.total_time.seconds()),
              0.12)
        << plan.instances.size() << " instances, predicted "
        << pred.total_time.seconds() << " measured "
        << run.total_time.seconds();
  }
}

TEST_F(IntegrationTest, DecisionEnginePredictionsMatchExecutedOutcomes) {
  // The energies the decision engine predicted for the chosen alternative
  // must track what actually happened (otherwise decisions are luck).
  std::vector<consolidate::WorkloadMix> mix{{workloads::encryption_12k(), 6}};
  std::vector<consolidate::BatchReport> reports;
  const auto dyn = runner_->run_dynamic(mix, &reports);
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_TRUE(reports.front().decision.has_value());
  const auto& chosen = reports.front().decision->chosen_estimate();
  EXPECT_LT(common::relative_error(chosen.time.seconds(), dyn.time.seconds()),
            0.15);
  EXPECT_LT(
      common::relative_error(chosen.charge.joules(), dyn.energy.joules()),
      0.15);
}

// ---- Tables 5-8: heterogeneous headline wins ----

TEST_F(IntegrationTest, SearchBlackScholesBestCaseBigWins) {
  std::vector<consolidate::WorkloadMix> mix{{workloads::t56_search(), 1},
                                            {workloads::t56_blackscholes(), 20}};
  const auto r = runner_->compare(mix);
  // Paper: 9.3x time, 9.9x energy vs CPU. Require at least 5x on both and
  // the serial ordering.
  EXPECT_GT(r.cpu.time / r.dynamic_framework.time, 5.0);
  EXPECT_GT(r.cpu.energy / r.dynamic_framework.energy, 5.0);
  EXPECT_GT(r.serial_gpu.time.seconds(), r.dynamic_framework.time.seconds());
}

TEST_F(IntegrationTest, EncryptionMonteCarloBestCaseBigWins) {
  std::vector<consolidate::WorkloadMix> mix{{workloads::t78_encryption(), 5},
                                            {workloads::t78_montecarlo(), 15}};
  const auto r = runner_->compare(mix);
  // Paper: 19x time, 22x energy vs CPU. Require at least 10x on both.
  EXPECT_GT(r.cpu.time / r.dynamic_framework.time, 10.0);
  EXPECT_GT(r.cpu.energy / r.dynamic_framework.energy, 10.0);
  // Mixed GPU-good (MC) + GPU-bad (encryption) still consolidates well:
  EXPECT_LT(r.dynamic_framework.time.seconds(),
            0.2 * r.serial_gpu.time.seconds());
}

TEST_F(IntegrationTest, ConsolidatingGpuGoodWithGpuBadHelpsBoth) {
  // The paper's "interesting result": a workload that performs worse on GPU
  // (search) consolidated with one that performs better (BlackScholes)
  // yields combined performance AND energy wins over CPU.
  std::vector<consolidate::WorkloadMix> mix{{workloads::t56_search(), 1},
                                            {workloads::t56_blackscholes(), 1}};
  const auto r = runner_->compare(mix);
  EXPECT_LT(r.dynamic_framework.time.seconds(), r.cpu.time.seconds());
  EXPECT_LT(r.dynamic_framework.energy.joules(), r.cpu.energy.joules());
}

TEST_F(IntegrationTest, HeadlineEnergyBenefitInPaperRange) {
  // Abstract: "2X to 22X energy benefit over a multicore CPU".
  struct Case {
    std::vector<consolidate::WorkloadMix> mix;
  };
  std::vector<Case> cases = {
      {{{workloads::encryption_12k(), 9}}},
      {{{workloads::sorting_6k(), 9}}},
      {{{workloads::t56_search(), 1}, {workloads::t56_blackscholes(), 10}}},
      {{{workloads::t78_encryption(), 1}, {workloads::t78_montecarlo(), 1}}},
  };
  for (const auto& c : cases) {
    const auto r = runner_->compare(c.mix);
    const double benefit = r.cpu.energy / r.dynamic_framework.energy;
    EXPECT_GT(benefit, 1.5);
  }
}

// ---- power model end-to-end ----

TEST_F(IntegrationTest, MeterAndIntegratorAgree) {
  const auto spec = workloads::t78_montecarlo();
  gpusim::LaunchPlan plan;
  plan.instances.push_back(gpusim::KernelInstance{spec.gpu, 0, ""});
  const auto run = engine_->run(plan);
  power::PowerMeter meter(1.0, 0.0, 1);  // noise-free
  const auto avg = meter.average_power(run, power::MeterWindow::kFullRun);
  EXPECT_NEAR(avg.watts() * run.total_time.seconds(),
              run.system_energy.joules(),
              0.02 * run.system_energy.joules());
}

TEST_F(IntegrationTest, TrainedModelTransfersToPaperWorkloads) {
  // Model trained on Rodinia-like kernels predicts the *paper* workloads'
  // power within 10% (the transfer that makes Figure 5 meaningful).
  perf::ConsolidationModel perf_model(engine_->device());
  power::PowerMeter meter(1.0, 0.01, 4242);
  for (const auto& spec :
       {workloads::encryption_12k(), workloads::sorting_6k(),
        workloads::t56_blackscholes(), workloads::t78_montecarlo()}) {
    gpusim::LaunchPlan plan;
    for (int i = 0; i < 3; ++i) {
      plan.instances.push_back(gpusim::KernelInstance{spec.gpu, i, ""});
    }
    const auto run = engine_->run(plan);
    const double measured =
        meter.average_power(run, power::MeterWindow::kKernelOnly).watts();
    const auto timing = perf_model.predict(plan);
    const auto pw = model_->predict(engine_->device(), plan, timing);
    const double predicted =
        model_->idle_power().watts() + pw.gpu_power.watts();
    EXPECT_LT(common::relative_error(predicted, measured), 0.10) << spec.name;
  }
}

}  // namespace
}  // namespace ewc
