#include "replay.hpp"

#include <bit>
#include <optional>
#include <stdexcept>

#include "cpusim/engine.hpp"
#include "power/trainer.hpp"
#include "traffic.hpp"
#include "workloads/rodinia_like.hpp"

namespace ewc::bench {

namespace {

using consolidate::Alternative;
using common::Duration;
using common::Energy;

/// Groups per shard whose replay calls also become trace spans.
constexpr std::uint64_t kSpanGroups = 200;

power::GpuPowerModel trained_model(const gpusim::FluidEngine& engine) {
  power::ModelTrainer trainer(engine);
  return trainer.train(workloads::rodinia_training_kernels()).model;
}

consolidate::TemplateRegistry serve_templates(
    const std::vector<workloads::InstanceSpec>& mix) {
  auto templates = consolidate::TemplateRegistry::paper_defaults();
  consolidate::ConsolidationTemplate t;
  t.name = "experiment_mix";
  for (const auto& spec : mix) t.kernels.insert(spec.gpu.name);
  templates.add(std::move(t));
  return templates;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

double us_since(Nanos start) {
  return static_cast<double>(now_ns() - start) * 1e-3;
}

}  // namespace

Replayer::Replayer(const std::vector<workloads::InstanceSpec>& mix)
    : decision_(engine_.device(), trained_model(engine_),
                options_.cpu_config, options_.costs),
      templates_(serve_templates(mix)) {
  for (const auto& spec : mix) by_kernel_.emplace(spec.gpu.name, spec);
}

std::vector<ReplayGroup> Replayer::replay(const std::vector<Report>& reports,
                                          std::size_t limit,
                                          SpanLog* spans) {
  std::vector<ReplayGroup> groups;
  int next_instance_id = 0;
  for (std::size_t i = 0; i < reports.size() && i < limit; ++i) {
    groups.push_back(replay_one(reports[i], &next_instance_id,
                                i < kSpanGroups ? spans : nullptr, i + 1));
  }
  return groups;
}

ReplayGroup Replayer::replay_one(const Report& report, int* next_instance_id,
                                 SpanLog* spans, std::uint64_t span_id) {
  ReplayGroup g;
  g.n = report.n;
  auto span = [&](const char* name, Nanos start) {
    if (spans != nullptr) spans->add(name, start, now_ns(), kReplayLane, span_id);
  };

  // The group as Backend::process_group assembles it: requests carry
  // api_messages = 1 and nothing staged (see traffic.cpp).
  gpusim::LaunchPlan plan;
  plan.reuse_constant_data = options_.optimizations.constant_data_reuse;
  std::vector<std::optional<cpusim::CpuTask>> profiles;
  for (const auto& name : report.kernels) {
    const auto it = by_kernel_.find(name);
    if (it == by_kernel_.end()) {
      throw std::runtime_error("replay: kernel '" + name + "' not in the mix");
    }
    gpusim::KernelInstance inst;
    inst.desc = it->second.gpu;
    inst.instance_id = (*next_instance_id)++;
    cpusim::CpuTask task = it->second.cpu;
    task.instance_id = inst.instance_id;
    plan.instances.push_back(std::move(inst));
    profiles.emplace_back(std::move(task));
  }
  const std::vector<std::size_t> staged(plan.instances.size(), 0);
  const std::vector<int> messages(plan.instances.size(), 1);
  const Duration overhead = decision_.overhead(plan.instances, staged,
                                               messages, options_.optimizations);
  const consolidate::ConsolidationTemplate* tmpl =
      templates_.find(report.kernels);
  const bool tmpl_matches = (tmpl != nullptr ? tmpl->name : "-") == report.tmpl;

  Alternative chosen = Alternative::kIndividualGpu;
  if (tmpl != nullptr && !report.degraded) {
    g.decided = true;
    Nanos t = now_ns();
    chosen = decision_.decide(plan, profiles, overhead, options_.policy).chosen;
    g.decide_us = us_since(t);
    span("decision.decide", t);

    // decide()'s parts, timed as separate calls: one consolidated and n
    // single-instance GPU predictions, then the CPU estimate. Each loop is
    // timed whole so timer reads stay out of the parts.
    const auto& perf = decision_.perf_model();
    const auto& power = decision_.power_model();
    std::vector<gpusim::LaunchPlan> plans(1, plan);
    for (const auto& inst : plan.instances) {
      plans.emplace_back().instances.push_back(inst);
    }
    std::vector<perf::ConsolidationPrediction> timings;
    timings.reserve(plans.size());
    t = now_ns();
    for (const auto& p : plans) timings.push_back(perf.predict(p));
    g.perf_us = us_since(t);
    span("perf.predict", t);
    t = now_ns();
    for (std::size_t i = 0; i < plans.size(); ++i) {
      power.predict(engine_.device(), plans[i], timings[i]);
    }
    g.power_us = us_since(t);
    span("power.predict", t);
    std::vector<cpusim::CpuTask> tasks;
    for (const auto& p : profiles) tasks.push_back(*p);
    t = now_ns();
    cpusim::CpuEngine(options_.cpu_config).run(tasks);
    g.cpu_us = us_since(t);
    span("cpusim.run", t);
  }

  // Execute the choice exactly as Backend::process_group does.
  Duration exec = Duration::zero();
  Energy energy = Energy::zero();
  int launches = 0;
  double exec_us = 0.0;
  auto run_gpu = [&](const gpusim::LaunchPlan& p) {
    const Nanos t = now_ns();
    const gpusim::RunResult run = engine_.run(p);
    const double us = us_since(t);
    g.gpusim_us += us;
    exec_us += us;
    ++g.gpusim_runs;
    span("gpusim.run", t);
    exec += run.total_time;
    energy += run.system_energy;
  };
  switch (chosen) {
    case Alternative::kConsolidatedGpu: {
      const int cap = tmpl->max_total_blocks;
      gpusim::LaunchPlan chunk;
      chunk.reuse_constant_data = plan.reuse_constant_data;
      int blocks = 0;
      for (const auto& inst : plan.instances) {
        if (blocks > 0 && blocks + inst.desc.num_blocks > cap) {
          run_gpu(chunk);
          ++launches;
          chunk.instances.clear();
          blocks = 0;
        }
        blocks += inst.desc.num_blocks;
        chunk.instances.push_back(inst);
      }
      if (!chunk.instances.empty()) {
        run_gpu(chunk);
        ++launches;
      }
      break;
    }
    case Alternative::kIndividualGpu:
      for (const auto& inst : plan.instances) {
        gpusim::LaunchPlan single;
        single.instances.push_back(inst);
        run_gpu(single);
      }
      break;
    case Alternative::kCpu: {
      std::vector<cpusim::CpuTask> tasks;
      for (const auto& p : profiles) tasks.push_back(*p);
      const Nanos t = now_ns();
      const auto run = cpusim::CpuEngine(options_.cpu_config).run(tasks);
      exec_us = us_since(t);
      span("cpusim.execute", t);
      const auto& e = engine_.energy_config();
      exec = run.makespan;
      energy = run.system_energy +
               common::Power::from_watts(e.system_idle_with_gpu.watts() -
                                         e.host_only_idle.watts()) *
                   run.makespan;
      break;
    }
  }
  energy += engine_.energy_config().system_idle_with_gpu * overhead;
  // decide()'s separately timed parts are not backend work.
  g.busy_us = g.decide_us + exec_us;
  g.exact = tmpl_matches && static_cast<int>(chosen) == report.executed &&
            launches == report.launches &&
            bits(overhead.seconds()) == report.overhead &&
            bits(exec.seconds()) == report.exec &&
            bits(energy.joules()) == report.energy;
  return g;
}

}  // namespace ewc::bench
