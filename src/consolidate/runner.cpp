#include "consolidate/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "consolidate/frontend.hpp"
#include "cudart/runtime.hpp"

namespace ewc::consolidate {

namespace {

std::vector<gpusim::KernelInstance> all_instances(
    const std::vector<WorkloadMix>& mix) {
  std::vector<gpusim::KernelInstance> out;
  int id = 0;
  for (const auto& m : mix) {
    auto batch = workloads::gpu_instances(m.spec, m.count, id);
    id += m.count;
    out.insert(out.end(), batch.begin(), batch.end());
  }
  return out;
}

std::string padded_owner(const std::string& name, int idx) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "#%04d", idx);
  return name + buf;
}

}  // namespace

ExperimentRunner::ExperimentRunner(const gpusim::FluidEngine& engine,
                                   power::GpuPowerModel power_model,
                                   BackendOptions options)
    : engine_(engine), power_model_(std::move(power_model)), options_(options) {}

SetupResult ExperimentRunner::run_cpu(const std::vector<WorkloadMix>& mix) const {
  std::vector<cpusim::CpuTask> tasks;
  int id = 0;
  for (const auto& m : mix) {
    auto batch = workloads::cpu_tasks(m.spec, m.count, id);
    id += m.count;
    tasks.insert(tasks.end(), batch.begin(), batch.end());
  }
  cpusim::CpuEngine cpu(options_.cpu_config);
  const auto run = cpu.run(tasks);
  // Paper CPU baseline: GPU power-disconnected, so no GPU idle adder.
  return SetupResult{run.makespan, run.system_energy};
}

SetupResult ExperimentRunner::run_serial(
    const std::vector<WorkloadMix>& mix) const {
  const auto run = engine_.run_serial(all_instances(mix));
  return SetupResult{run.total_time, run.system_energy};
}

SetupResult ExperimentRunner::run_manual(
    const std::vector<WorkloadMix>& mix) const {
  gpusim::LaunchPlan plan;
  plan.instances = all_instances(mix);
  plan.reuse_constant_data = false;  // manual version lacks the optimization
  const auto run = engine_.run(plan);
  return SetupResult{run.total_time, run.system_energy};
}

SetupResult ExperimentRunner::run_dynamic(
    const std::vector<WorkloadMix>& mix, std::vector<BatchReport>* reports,
    std::map<std::string, CompletionReply>* completions) const {
  // Register one "precompiled" kernel per spec so the calibrated descriptor
  // flows through the real API path.
  cudart::KernelRegistry registry;
  int total = 0;
  for (const auto& m : mix) {
    const gpusim::KernelDesc desc = m.spec.gpu;
    registry.register_kernel(
        "spec:" + m.spec.name,
        [desc](const cudart::LaunchConfig&, std::span<const std::byte>) {
          return desc;
        });
    total += m.count;
  }
  if (total == 0) return SetupResult{};

  BackendOptions options = options_;
  options.batch_threshold = total;  // one batch covering the experiment

  // Templates must cover the descriptors' kernel names.
  std::vector<workloads::InstanceSpec> specs;
  for (const auto& m : mix) specs.push_back(m.spec);
  Backend backend(engine_, power_model_, served_mix(specs), options);

  cudart::Runtime runtime(engine_, &registry);

  // One "user process" per instance.
  std::vector<std::thread> apps;
  std::vector<cudart::wcudaError> status(static_cast<std::size_t>(total),
                                         cudart::wcudaError::kSuccess);
  std::mutex completions_mu;
  int idx = 0;
  for (const auto& m : mix) {
    for (int i = 0; i < m.count; ++i, ++idx) {
      const int slot = idx;
      const auto spec = m.spec;  // copy for the thread
      apps.emplace_back([&, spec, slot] {
        cudart::Context ctx(padded_owner(spec.name, slot), 512u << 20);
        Frontend frontend(backend, ctx.owner(), &registry);
        ctx.set_interceptor(&frontend);

        auto fail = [&](cudart::wcudaError e) { status[static_cast<std::size_t>(slot)] = e; };

        const std::size_t in_bytes = std::max<std::size_t>(
            16, static_cast<std::size_t>(spec.gpu.h2d_bytes.bytes()));
        const std::size_t out_bytes = std::max<std::size_t>(
            16, static_cast<std::size_t>(spec.gpu.d2h_bytes.bytes()));
        std::vector<std::uint8_t> input(in_bytes, 0xAB);
        std::vector<std::uint8_t> output(out_bytes, 0);

        void* dev = nullptr;
        auto e = runtime.wcudaMalloc(ctx, &dev, std::max(in_bytes, out_bytes));
        if (e != cudart::wcudaError::kSuccess) return fail(e);
        e = runtime.wcudaMemcpy(ctx, dev, input.data(), in_bytes,
                                cudart::MemcpyKind::kHostToDevice);
        if (e != cudart::wcudaError::kSuccess) return fail(e);
        e = runtime.wcudaConfigureCall(
            ctx, cudart::Dim3{static_cast<unsigned>(spec.gpu.num_blocks), 1, 1},
            cudart::Dim3{static_cast<unsigned>(spec.gpu.threads_per_block), 1, 1},
            0);
        if (e != cudart::wcudaError::kSuccess) return fail(e);
        const std::uint64_t token = static_cast<std::uint64_t>(slot);
        e = runtime.wcudaSetupArgument(ctx, &token, sizeof token, 0);
        if (e != cudart::wcudaError::kSuccess) return fail(e);
        e = runtime.wcudaLaunch(ctx, "spec:" + spec.name);
        if (e != cudart::wcudaError::kSuccess) return fail(e);
        e = runtime.wcudaMemcpy(ctx, output.data(), dev, out_bytes,
                                cudart::MemcpyKind::kDeviceToHost);
        if (e != cudart::wcudaError::kSuccess) return fail(e);
        runtime.wcudaFree(ctx, dev);
        if (completions) {
          std::lock_guard lock(completions_mu);
          (*completions)[ctx.owner()] = frontend.last_completion();
        }
      });
    }
  }
  for (auto& t : apps) t.join();
  backend.flush();

  for (auto e : status) {
    if (e != cudart::wcudaError::kSuccess) {
      backend.shutdown();
      throw std::runtime_error(std::string("dynamic run failed: ") +
                               cudart::error_name(e));
    }
  }

  SetupResult result{backend.total_time(), backend.total_energy()};
  if (reports) *reports = backend.take_reports();
  backend.shutdown();
  return result;
}

ComparisonResult ExperimentRunner::compare(
    const std::vector<WorkloadMix>& mix) const {
  ComparisonResult r;
  r.cpu = run_cpu(mix);
  r.serial_gpu = run_serial(mix);
  r.manual = run_manual(mix);
  r.dynamic_framework = run_dynamic(mix, &r.dynamic_reports);
  return r;
}

}  // namespace ewc::consolidate
