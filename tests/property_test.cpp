// Cross-module property tests: invariants that must hold for ANY workload
// mix, swept over randomized and structured inputs (TEST_P).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "consolidate/runner.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/simd.hpp"
#include "perf/consolidation_model.hpp"
#include "power/meter.hpp"
#include "power/power_model.hpp"
#include "workloads/paper_configs.hpp"

namespace ewc {
namespace {

/// Deterministic pseudo-random kernel in a realistic envelope.
gpusim::KernelDesc random_kernel(common::Rng& rng, int index) {
  gpusim::KernelDesc k;
  k.name = "rand" + std::to_string(index);
  k.num_blocks = static_cast<int>(rng.uniform_int(1, 90));
  k.threads_per_block = static_cast<int>(rng.uniform_int(1, 8)) * 32;
  k.mix.fp_insts = rng.uniform(0.0, 2.0e5);
  k.mix.int_insts = rng.uniform(0.0, 1.0e5);
  k.mix.sfu_insts = rng.uniform(0.0, 2.0e4);
  k.mix.coalesced_mem_insts = rng.uniform(0.0, 1.0e4);
  k.mix.uncoalesced_mem_insts = rng.uniform(0.0, 500.0);
  k.mix.shared_accesses = rng.uniform(0.0, 5.0e4);
  k.mix.const_accesses = rng.uniform(0.0, 5.0e4);
  k.mix.sync_insts = rng.uniform(0.0, 200.0);
  k.resources.registers_per_thread = static_cast<int>(rng.uniform_int(8, 40));
  k.resources.shared_mem_per_block = rng.uniform_int(0, 12) * 1024;
  // Guarantee at least some work so the kernel is non-degenerate.
  k.mix.int_insts += 10.0;
  return k;
}

class RandomPlanSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomPlanSweep, EngineInvariantsHold) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  gpusim::FluidEngine engine;
  gpusim::LaunchPlan plan;
  const int n = 1 + GetParam() % 4;
  int total_blocks = 0;
  for (int i = 0; i < n; ++i) {
    gpusim::KernelInstance inst;
    inst.desc = random_kernel(rng, i);
    inst.instance_id = i;
    plan.instances.push_back(std::move(inst));
    total_blocks += plan.instances.back().desc.num_blocks;
  }

  const auto run = engine.run(plan);

  // 1. Block conservation.
  int executed = 0;
  for (const auto& sm : run.sm_stats) executed += sm.blocks_executed;
  EXPECT_EQ(executed, total_blocks);

  // 2. Every instance completes, within the makespan.
  ASSERT_EQ(run.completions.size(), static_cast<std::size_t>(n));
  for (const auto& c : run.completions) {
    EXPECT_LE(c.finish_time.seconds(), run.total_time.seconds() + 1e-9);
  }

  // 3. Energy equals the integral of the power trace.
  double joules = 0.0;
  for (const auto& s : run.power_segments) {
    joules += s.system_power.watts() * s.length.seconds();
  }
  EXPECT_NEAR(run.system_energy.joules(), joules,
              1e-6 * std::max(1.0, joules));

  // 4. Event counts are schedule-independent (match the static totals).
  const auto totals = power::plan_event_totals(engine.device(), plan);
  EXPECT_NEAR(run.device_counts.fp, totals.fp, 1e-6 * (totals.fp + 1.0));
  EXPECT_NEAR(run.device_counts.coalesced_tx, totals.coalesced_tx,
              1e-6 * (totals.coalesced_tx + 1.0));

  // 5. Determinism: running the identical plan reproduces the result.
  const auto again = engine.run(plan);
  EXPECT_DOUBLE_EQ(run.total_time.seconds(), again.total_time.seconds());
  EXPECT_DOUBLE_EQ(run.system_energy.joules(), again.system_energy.joules());

  // 6. Consolidated makespan is bounded by serial execution (work
  //    conservation, modulo the DRAM mixing penalty) and by the slowest
  //    constituent alone.
  double serial_sum = 0.0;
  double slowest = 0.0;
  for (const auto& inst : plan.instances) {
    gpusim::LaunchPlan single;
    single.instances.push_back(inst);
    const double t = engine.run(single).kernel_time.seconds();
    serial_sum += t;
    slowest = std::max(slowest, t);
  }
  EXPECT_GE(run.kernel_time.seconds(), slowest * 0.999);
  EXPECT_LE(run.kernel_time.seconds(),
            serial_sum / engine.device().min_mixing_efficiency + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPlanSweep, ::testing::Range(0, 16));

/// RAII pin of the advance path, so a failing assertion can't leave the
/// process on the wrong path for later tests.
class PathGuard {
 public:
  explicit PathGuard(bool simd) { gpusim::set_simd_enabled(simd); }
  ~PathGuard() { gpusim::set_simd_enabled(false); }
};

TEST_P(RandomPlanSweep, InvariantsHoldOnBothAdvancePaths) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 15485863);
  const gpusim::FluidEngine engine;
  const auto& dev = engine.device();
  gpusim::LaunchPlan plan;
  const int n = 1 + GetParam() % 4;
  for (int i = 0; i < n; ++i) {
    gpusim::KernelInstance inst;
    inst.desc = random_kernel(rng, i);
    inst.instance_id = i;
    plan.instances.push_back(std::move(inst));
  }

  for (const bool simd : {false, true}) {
    if (simd && !gpusim::simd_compiled_in()) continue;
    SCOPED_TRACE(simd ? "simd path" : "scalar path");
    PathGuard guard(simd);
    const auto run = engine.run(plan);

    // Total energy equals the integral of the power trace (each segment a
    // constant-power interval the instances' energies sum into).
    double joules = 0.0;
    for (const auto& s : run.power_segments) {
      joules += s.system_power.watts() * s.length.seconds();
    }
    EXPECT_NEAR(run.system_energy.joules(), joules,
                1e-6 * std::max(1.0, joules));

    // Simulated time is non-decreasing across events, and every completion
    // lands inside [0, makespan].
    double prev_t = 0.0;
    for (const auto& o : run.occupancy) {
      EXPECT_GE(o.time.seconds(), prev_t);
      prev_t = o.time.seconds();
      // Per-SM occupancy never exceeds the device's residency limits.
      EXPECT_LE(o.busy_sms, dev.num_sms);
      EXPECT_GE(o.busy_sms, 0);
      EXPECT_LE(o.resident_blocks, dev.num_sms * dev.max_blocks_per_sm);
      EXPECT_GE(o.resident_blocks, o.busy_sms);
    }
    EXPECT_LE(prev_t, run.kernel_time.seconds() + 1e-12);
    for (const auto& sm : run.sm_stats) {
      EXPECT_LE(sm.busy.seconds(), run.kernel_time.seconds() + 1e-9);
    }
    EXPECT_LE(run.fluid_events,
              gpusim::FluidEngine::event_budget(
                  static_cast<std::size_t>(plan.total_blocks())));
  }
}

TEST_P(RandomPlanSweep, SerialAtLeastConsolidatedOnBothPaths) {
  // For a homogeneous plan (one kernel replicated) there is no DRAM mixing
  // penalty, so consolidation is work-conserving: run_serial's total time
  // bounds any consolidated plan's makespan from above.
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 32452843);
  const gpusim::FluidEngine engine;
  gpusim::LaunchPlan plan;
  const auto desc = random_kernel(rng, 0);
  const int n = 2 + GetParam() % 3;
  for (int i = 0; i < n; ++i) {
    plan.instances.push_back(gpusim::KernelInstance{desc, i, ""});
  }
  for (const bool simd : {false, true}) {
    if (simd && !gpusim::simd_compiled_in()) continue;
    SCOPED_TRACE(simd ? "simd path" : "scalar path");
    PathGuard guard(simd);
    const auto consolidated = engine.run(plan);
    const auto serial = engine.run_serial(plan.instances);
    EXPECT_GE(serial.total_time.seconds(),
              consolidated.total_time.seconds() * (1.0 - 1e-9));
  }
}

class PredictionSweep : public ::testing::TestWithParam<int> {};

TEST_P(PredictionSweep, ModelTracksSimulatorWithin25Percent) {
  // Random plans are far outside the calibrated envelope; the static model
  // must still track the simulator (tight bounds are asserted on the
  // paper's configurations in perf_test).
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  gpusim::FluidEngine engine;
  perf::ConsolidationModel model(engine.device());
  gpusim::LaunchPlan plan;
  const int n = 1 + GetParam() % 3;
  for (int i = 0; i < n; ++i) {
    gpusim::KernelInstance inst;
    inst.desc = random_kernel(rng, i);
    inst.instance_id = i;
    plan.instances.push_back(std::move(inst));
  }
  const double sim = engine.run(plan).kernel_time.seconds();
  const double pred = model.predict(plan).kernel_time.seconds();
  if (sim > 1e-6) {
    EXPECT_LT(std::abs(pred - sim) / sim, 0.25)
        << "predicted " << pred << " simulated " << sim;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredictionSweep, ::testing::Range(0, 12));

TEST(PowerProperties, EnergyMonotoneInInstanceCount) {
  gpusim::FluidEngine engine;
  const auto spec = workloads::encryption_12k();
  double prev = 0.0;
  for (int n = 1; n <= 8; ++n) {
    gpusim::LaunchPlan plan;
    for (int i = 0; i < n; ++i) {
      plan.instances.push_back(gpusim::KernelInstance{spec.gpu, i, ""});
    }
    const double joules = engine.run(plan).system_energy.joules();
    EXPECT_GT(joules, prev);
    prev = joules;
  }
}

TEST(PowerProperties, NoiseFreeMeterMatchesExactAverage) {
  gpusim::FluidEngine engine;
  gpusim::LaunchPlan plan;
  plan.instances.push_back(
      gpusim::KernelInstance{workloads::t78_montecarlo().gpu, 0, ""});
  const auto run = engine.run(plan);
  power::PowerMeter meter(1.0, 0.0, 99);
  const double sampled =
      meter.average_power(run, power::MeterWindow::kKernelOnly).watts();
  const double exact =
      power::exact_average_power(run, power::MeterWindow::kKernelOnly).watts();
  EXPECT_NEAR(sampled, exact, 0.01 * exact);
}

TEST(FrameworkProperties, DynamicRunIsDeterministic) {
  gpusim::FluidEngine engine;
  const power::GpuPowerModel model = power::default_device_model();
  consolidate::ExperimentRunner runner(engine, model);
  std::vector<consolidate::WorkloadMix> mix{
      {workloads::encryption_12k(), 3}, {workloads::sorting_6k(), 2}};
  const auto a = runner.run_dynamic(mix);
  const auto b = runner.run_dynamic(mix);
  EXPECT_DOUBLE_EQ(a.time.seconds(), b.time.seconds());
  EXPECT_DOUBLE_EQ(a.energy.joules(), b.energy.joules());
}

TEST(FrameworkProperties, SerialSetupScalesExactlyLinearly) {
  gpusim::FluidEngine engine;
  const power::GpuPowerModel model = power::default_device_model();
  consolidate::ExperimentRunner runner(engine, model);
  const auto spec = workloads::search_10k();
  const auto one = runner.run_serial({{spec, 1}});
  const auto five = runner.run_serial({{spec, 5}});
  EXPECT_NEAR(five.time.seconds(), 5.0 * one.time.seconds(), 1e-9);
  EXPECT_NEAR(five.energy.joules(), 5.0 * one.energy.joules(), 1e-5);
}

TEST(CpuProperties, MakespanMonotoneInWork) {
  cpusim::CpuEngine cpu;
  double prev = 0.0;
  for (double work : {1.0, 2.0, 4.0, 8.0}) {
    cpusim::CpuTask t;
    t.name = "w";
    t.core_seconds = work;
    t.threads = 3;
    const double m = cpu.run({t}).makespan.seconds();
    EXPECT_GT(m, prev);
    prev = m;
  }
}

}  // namespace
}  // namespace ewc
