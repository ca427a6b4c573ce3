#include "consolidate/queue_sim.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/stats.hpp"
#include "cpusim/engine.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"

namespace ewc::consolidate {

QueueSimulator::QueueSimulator(
    const gpusim::FluidEngine& engine, power::GpuPowerModel power_model,
    std::map<std::string, workloads::InstanceSpec> catalogue,
    QueueSimOptions options)
    : engine_(engine),
      decision_(engine.device(), std::move(power_model), options.cpu_config,
                options.costs),
      catalogue_(std::move(catalogue)),
      options_(options) {
  if (options_.enable_sim_cache) {
    run_memo_ = std::make_unique<gpusim::RunMemo>(engine_,
                                                  options_.sim_cache_capacity);
    decision_.enable_prediction_cache(options_.sim_cache_capacity);
  }
  decision_.set_pool(options_.pool);
}

QueueSimResult QueueSimulator::run(
    const std::vector<trace::Request>& requests) const {
  for (std::size_t i = 1; i < requests.size(); ++i) {
    if (requests[i].arrival_seconds < requests[i - 1].arrival_seconds) {
      throw std::invalid_argument("QueueSimulator: trace not sorted");
    }
  }

  QueueSimResult result;
  const double idle_w =
      engine_.energy_config().system_idle_with_gpu.watts();
  const double gpu_idle_delta_w =
      idle_w - engine_.energy_config().host_only_idle.watts();

  // Per-batch counters bump through cached handles: one registry lookup
  // here, then a lock-free atomic add per batch inside the loop.
  auto& registry = obs::Registry::instance();
  auto batches_ctr = registry.counter("queue_sim.batches");
  auto requests_ctr = registry.counter("queue_sim.requests");
  obs::Histogram* batch_hist = registry.histogram("queue_sim.batch_size");
  obs::Histogram* latency_hist =
      registry.histogram("queue_sim.request_latency_seconds");

  std::size_t next = 0;
  double t_free = 0.0;
  double busy_and_gap_joules = 0.0;

  // Per-batch working buffers, hoisted so a long trace replay allocates them
  // once: after the first few batches every clear()/push_back cycle runs
  // inside retained capacity (same SoA-era discipline as FluidEngine's
  // arena; DecisionEngine's parallel evaluation depends on `plan` staying
  // stable for the batch).
  std::vector<trace::Request> batch;
  gpusim::LaunchPlan plan;
  std::vector<std::optional<cpusim::CpuTask>> profiles;
  std::vector<std::size_t> staged;
  std::vector<int> messages;
  std::vector<cpusim::CpuTask> cpu_tasks;
  gpusim::LaunchPlan single;  // the serial alternative's one-instance plan
  single.instances.resize(1);

  while (next < requests.size()) {
    // ---- form one batch ----
    batch.clear();
    batch.push_back(requests[next++]);
    const double deadline =
        batch.front().arrival_seconds + options_.batch_timeout.seconds();
    while (static_cast<int>(batch.size()) < options_.batch_threshold &&
           next < requests.size() &&
           requests[next].arrival_seconds <= deadline) {
      batch.push_back(requests[next++]);
    }
    const bool filled =
        static_cast<int>(batch.size()) >= options_.batch_threshold;
    // The batch triggers when it fills or when the timeout expires. An
    // under-filled batch always waits out the timeout: the runtime cannot
    // know the trace has drained, so a flush at the last arrival would
    // let the final batch jump its own deadline.
    double ready = filled ? batch.back().arrival_seconds : deadline;

    // ---- build the launch plan + profiles ----
    plan.instances.clear();
    plan.reuse_constant_data = options_.optimizations.constant_data_reuse;
    profiles.clear();
    staged.clear();
    messages.clear();
    for (std::size_t b = 0; b < batch.size(); ++b) {
      auto it = catalogue_.find(batch[b].workload);
      if (it == catalogue_.end()) {
        throw std::out_of_range("QueueSimulator: unknown workload '" +
                                batch[b].workload + "'");
      }
      gpusim::KernelInstance inst;
      inst.desc = it->second.gpu;
      inst.instance_id = static_cast<int>(b);
      inst.owner = "user" + std::to_string(batch[b].user_id);
      plan.instances.push_back(std::move(inst));
      cpusim::CpuTask task = it->second.cpu;
      task.instance_id = static_cast<int>(b);
      profiles.emplace_back(std::move(task));
      staged.push_back(
          static_cast<std::size_t>(it->second.gpu.h2d_bytes.bytes()));
      messages.push_back(options_.optimizations.argument_batching ? 4 : 7);
    }

    const auto overhead = decision_.overhead(plan.instances, staged, messages,
                                             options_.optimizations);
    const auto decision =
        decision_.decide(plan, profiles, overhead, options_.policy);

    // ---- execute ----
    const double start = std::max(ready, t_free);

    double exec_seconds = 0.0;
    double exec_joules = 0.0;
    // The engine's sim-clock events are relative to its own t=0; anchor them
    // at this batch's execution start on the queue timeline.
    obs::SimClockScope sim_base(start + overhead.seconds());
    switch (decision.chosen) {
      case Alternative::kConsolidatedGpu: {
        if (run_memo_) {
          const auto run = run_memo_->run(plan);
          exec_seconds = run.total_time.seconds();
          exec_joules = run.system_energy.joules();
        } else {
          const auto run = engine_.run(plan);
          exec_seconds = run.total_time.seconds();
          exec_joules = run.system_energy.joules();
        }
        break;
      }
      case Alternative::kIndividualGpu: {
        common::Duration time = common::Duration::zero();
        common::Energy energy = common::Energy::zero();
        if (run_memo_) {
          // One memo lookup per instance, summed in plan order: the same
          // additions from zero that run_serial's RunResult::append makes,
          // so the totals are bit-identical to it.
          for (const auto& inst : plan.instances) {
            single.instances[0] = inst;
            const auto run = run_memo_->run(single);
            time += run.total_time;
            energy += run.system_energy;
          }
        } else {
          const auto run = engine_.run_serial(plan.instances);
          time = run.total_time;
          energy = run.system_energy;
        }
        exec_seconds = time.seconds();
        exec_joules = energy.joules();
        break;
      }
      case Alternative::kCpu: {
        cpu_tasks.clear();
        for (auto& p : profiles) cpu_tasks.push_back(*p);
        cpusim::CpuEngine cpu(options_.cpu_config);
        const auto run = cpu.run(cpu_tasks);
        exec_seconds = run.makespan.seconds();
        exec_joules = run.system_energy.joules() +
                      gpu_idle_delta_w * run.makespan.seconds();
        break;
      }
    }

    const double gap = start - t_free;  // node idles between batches
    const double finish = start + overhead.seconds() + exec_seconds;
    busy_and_gap_joules += gap * idle_w + overhead.seconds() * idle_w +
                           exec_joules;

    batches_ctr.inc();
    requests_ctr.add(static_cast<double>(batch.size()));
    batch_hist->record(static_cast<double>(batch.size()));
    if (obs::Tracer::enabled()) {
      // sim_base anchors at start+overhead; back up to the batch's start.
      obs::sim_span("queue_sim.batch", -overhead.seconds(),
                    finish - start, 0,
                    "\"requests\":" + std::to_string(batch.size()) +
                        ",\"chosen\":\"" +
                        alternative_name(decision.chosen) + "\"");
    }

    for (const auto& req : batch) {
      RequestOutcome o;
      o.user_id = req.user_id;
      o.workload = req.workload;
      o.arrival_seconds = req.arrival_seconds;
      o.finish_seconds = finish;
      result.outcomes.push_back(std::move(o));
    }
    t_free = finish;
    result.batches += 1;
  }

  result.makespan = common::Duration::from_seconds(t_free);
  result.energy = common::Energy::from_joules(busy_and_gap_joules);

  std::vector<double> latencies;
  latencies.reserve(result.outcomes.size());
  for (const auto& o : result.outcomes) {
    latencies.push_back(o.latency_seconds());
    latency_hist->record(o.latency_seconds());
  }
  result.mean_latency_seconds = common::mean(latencies);
  result.p95_latency_seconds = common::percentile(latencies, 95.0);

  if (run_memo_) result.run_cache_stats = run_memo_->stats();
  result.predict_cache_stats = decision_.prediction_cache_stats();
  gpusim::CacheCounters("queue_sim.run_cache").publish(result.run_cache_stats);
  gpusim::CacheCounters("queue_sim.predict_cache")
      .publish(result.predict_cache_stats);
  return result;
}

}  // namespace ewc::consolidate
