#include "consolidate/executor.hpp"

#include "cpusim/engine.hpp"
#include "obs/tracer.hpp"

namespace ewc::consolidate {

GroupExecutor::GroupExecutor(const gpusim::FluidEngine& engine,
                             gpusim::RunMemo* memo,
                             cpusim::CpuConfig cpu_config)
    : engine_(engine), memo_(memo), cpu_config_(cpu_config) {}

gpusim::RunOutcome GroupExecutor::gpu_run(const gpusim::LaunchPlan& plan) const {
  if (memo_ != nullptr) return memo_->run(plan);
  return gpusim::outcome_of(plan, engine_.run(plan));
}

GroupExecution GroupExecutor::run(
    Alternative chosen, const gpusim::LaunchPlan& plan,
    const std::vector<std::optional<cpusim::CpuTask>>& profiles,
    int max_total_blocks, common::Duration overhead, double sim_anchor,
    std::span<const RequestContext> contexts) const {
  using common::Duration;

  GroupExecution out;
  out.finish_times.resize(plan.instances.size());
  switch (chosen) {
    case Alternative::kConsolidatedGpu: {
      // Split by template capacity; splits execute back-to-back.
      std::vector<gpusim::LaunchPlan> chunks;
      gpusim::LaunchPlan current;
      current.reuse_constant_data = plan.reuse_constant_data;
      int blocks = 0;
      for (const auto& inst : plan.instances) {
        if (blocks > 0 && inst.desc.num_blocks > max_total_blocks - blocks) {
          chunks.push_back(std::move(current));
          current = gpusim::LaunchPlan{};
          current.reuse_constant_data = plan.reuse_constant_data;
          blocks = 0;
        }
        blocks += inst.desc.num_blocks;
        current.instances.push_back(inst);
      }
      if (!current.instances.empty()) chunks.push_back(std::move(current));
      out.launches = static_cast<int>(chunks.size());

      Duration offset = Duration::zero();
      std::size_t first = 0;  // plan position of the chunk's first instance
      for (const auto& chunk : chunks) {
        obs::SimClockScope sim_base(sim_anchor + overhead.seconds() +
                                    offset.seconds());
        const gpusim::RunOutcome run = gpu_run(chunk);
        for (std::size_t j = 0; j < run.finish_times.size(); ++j) {
          out.finish_times[first + j] = overhead + offset + run.finish_times[j];
        }
        first += chunk.instances.size();
        offset += run.total_time;
        out.energy += run.system_energy;
      }
      out.time = offset;
      break;
    }
    case Alternative::kIndividualGpu: {
      // Summed in plan order from zero: the same additions run_serial's
      // RunResult::append makes, so the totals are bit-identical to it.
      Duration offset = Duration::zero();
      gpusim::LaunchPlan single;
      single.instances.resize(1);
      for (std::size_t i = 0; i < plan.instances.size(); ++i) {
        single.instances[0] = plan.instances[i];
        const RequestContext& ctx = contexts[i];
        obs::SimClockScope sim_base(sim_anchor + overhead.seconds() +
                                    offset.seconds());
        obs::RequestScope req_scope(ctx.request_id);
        obs::TraceScope trace_scope(ctx.trace_id, ctx.parent_span_id);
        const gpusim::RunOutcome run = gpu_run(single);
        out.finish_times[i] = overhead + offset + run.total_time;
        offset += run.total_time;
        out.energy += run.system_energy;
      }
      out.time = offset;
      break;
    }
    case Alternative::kCpu: {
      std::vector<cpusim::CpuTask> tasks;
      tasks.reserve(profiles.size());
      // decide() picks the CPU only when every position has a profile.
      for (const auto& p : profiles) tasks.push_back(*p);
      const cpusim::CpuRunResult run = cpusim::CpuEngine(cpu_config_).run(tasks);
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        for (const auto& c : run.completions) {
          if (c.instance_id == tasks[i].instance_id) {
            out.finish_times[i] = overhead + c.finish_time;
            break;
          }
        }
      }
      out.time = run.makespan;
      out.energy = run.system_energy +
                   gpu_idle_adder(engine_.energy_config()) * run.makespan;
      break;
    }
  }
  return out;
}

}  // namespace ewc::consolidate
