// Micro-benchmarks (google-benchmark): throughput of the simulator and the
// prediction models themselves. The decision engine runs in the backend's
// request path, so its cost must stay negligible next to the workloads
// (paper Section VII: "the overhead of calculating performance and energy
// benefits is low").
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "cpusim/engine.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/simd.hpp"
#include "perf/consolidation_model.hpp"
#include "power/event_rates.hpp"
#include "power/trainer.hpp"
#include "workloads/paper_configs.hpp"
#include "workloads/rodinia_like.hpp"

namespace {

using namespace ewc;

gpusim::LaunchPlan make_plan(const workloads::InstanceSpec& spec,
                             int instances) {
  gpusim::LaunchPlan plan;
  for (int i = 0; i < instances; ++i) {
    plan.instances.push_back(gpusim::KernelInstance{spec.gpu, i, ""});
  }
  return plan;
}

gpusim::LaunchPlan make_plan(int instances) {
  static const auto spec = workloads::encryption_12k();
  return make_plan(spec, instances);
}

void BM_EngineRun(benchmark::State& state) {
  gpusim::FluidEngine engine;
  const auto plan = make_plan(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(plan));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineRun)->Arg(1)->Arg(8)->Arg(32)->Arg(64);

// Phase-split engine timing: the advance loop (dispatch + fluid events) vs
// the rest of run() (statics, transfers, result assembly), separated via the
// engine's own wall_advance/wall_total instrumentation. Arg 2 selects the
// advance path (0 = scalar reference, 1 = SIMD), so one run of this
// benchmark in the default build yields the scalar-vs-SIMD speedup ratio CI
// publishes; in an EWC_SIMD=OFF build the SIMD rows are skipped.
void BM_EngineAdvance(benchmark::State& state) {
  gpusim::FluidEngine engine;
  const auto plan = make_plan(static_cast<int>(state.range(0)));
  const bool simd = state.range(1) != 0;
  if (simd && !gpusim::simd_compiled_in()) {
    state.SkipWithError("SIMD path not compiled in (EWC_SIMD=OFF)");
    return;
  }
  const bool prev = gpusim::simd_enabled();
  gpusim::set_simd_enabled(simd);
  double advance_s = 0.0;
  double total_s = 0.0;
  double events = 0.0;
  for (auto _ : state) {
    const auto run = engine.run(plan);
    advance_s += run.wall_advance_seconds;
    total_s += run.wall_total_seconds;
    events = static_cast<double>(run.fluid_events);
    benchmark::DoNotOptimize(&run);
  }
  gpusim::set_simd_enabled(prev);
  const auto iters = static_cast<double>(state.iterations());
  state.counters["advance_s_per_run"] = advance_s / iters;
  state.counters["advance_frac"] = total_s > 0.0 ? advance_s / total_s : 0.0;
  state.counters["fluid_events"] = events;
  state.counters["simd"] = simd ? 1.0 : 0.0;
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineAdvance)
    ->Args({8, 0})->Args({8, 1})
    ->Args({64, 0})->Args({64, 1})
    ->Args({256, 0})->Args({256, 1});

// Arg = instances of one workload. encryption_12k (3 blocks each) stays
// within the device's resident-block capacity up to 16 instances;
// kmeans_256k (1024 blocks, 2 resident per SM) overflows it even alone, and
// 16 instances is the kmeans_500 benchmark's batch.
void BM_PerfPredict(benchmark::State& state,
                    workloads::InstanceSpec (*workload)()) {
  perf::ConsolidationModel model;
  const auto plan = make_plan(workload(), static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(plan));
  }
}
BENCHMARK_CAPTURE(BM_PerfPredict, encryption_12k, workloads::encryption_12k)
    ->Arg(2)->Arg(16)->Arg(64);
BENCHMARK_CAPTURE(BM_PerfPredict, kmeans_256k, workloads::kmeans_256k)
    ->Arg(1)->Arg(16);

void BM_PowerPredict(benchmark::State& state) {
  gpusim::FluidEngine engine;
  power::ModelTrainer trainer(engine);
  const auto report = trainer.train(workloads::rodinia_training_kernels());
  perf::ConsolidationModel perf_model;
  const auto plan = make_plan(8);
  const auto timing = perf_model.predict(plan);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        report.model.predict(engine.device(), plan, timing));
  }
}
BENCHMARK(BM_PowerPredict);

void BM_PowerTraining(benchmark::State& state) {
  gpusim::FluidEngine engine;
  const auto kernels = workloads::rodinia_training_kernels();
  for (auto _ : state) {
    power::ModelTrainer trainer(engine);
    benchmark::DoNotOptimize(trainer.train(kernels));
  }
}
BENCHMARK(BM_PowerTraining);

void BM_CpuEngine(benchmark::State& state) {
  cpusim::CpuEngine cpu;
  std::vector<cpusim::CpuTask> tasks;
  for (int i = 0; i < state.range(0); ++i) {
    cpusim::CpuTask t;
    t.name = "t";
    t.core_seconds = 1.0 + 0.1 * i;
    t.threads = 1 + i % 8;
    t.cache_sensitivity = 0.4;
    t.instance_id = i;
    tasks.push_back(t);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpu.run(tasks));
  }
}
BENCHMARK(BM_CpuEngine)->Arg(4)->Arg(32);

void BM_EventRateExtraction(benchmark::State& state) {
  gpusim::DeviceConfig dev;
  const auto plan = make_plan(16);
  for (auto _ : state) {
    auto totals = power::plan_event_totals(dev, plan);
    benchmark::DoNotOptimize(power::virtual_sm_rates(dev, totals, 1e9));
  }
}
BENCHMARK(BM_EventRateExtraction);

}  // namespace

// Hand-rolled BENCHMARK_MAIN so the run can end with the shared
// observability JSON block. --json/--json= is ours, not google-benchmark's,
// so it is stripped before Initialize (which rejects unknown flags).
int main(int argc, char** argv) {
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      ++i;
      continue;
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) continue;
    bench_argv.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  ewc::bench::write_observability_json(argc, argv, "bench_micro");
  return 0;
}
