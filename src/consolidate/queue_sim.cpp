#include "consolidate/queue_sim.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/stats.hpp"
#include "consolidate/plan_order.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"

namespace ewc::consolidate {

QueueSimulator::QueueSimulator(
    const gpusim::FluidEngine& engine, power::GpuPowerModel power_model,
    std::map<std::string, workloads::InstanceSpec> catalogue,
    QueueSimOptions options)
    : engine_(engine),
      decision_(engine.device(), std::move(power_model), cpusim::CpuConfig{},
                FrameworkCosts{}, engine.energy_config()),
      catalogue_(std::move(catalogue)),
      options_(options),
      run_memo_(options.enable_sim_cache
                    ? std::make_unique<gpusim::RunMemo>(engine, kMemoCapacity)
                    : nullptr),
      executor_(engine, run_memo_.get(), cpusim::CpuConfig{}) {
  if (options_.enable_sim_cache) {
    decision_.enable_prediction_cache(kMemoCapacity);
  }
  decision_.set_pool(options_.pool);
}

QueueSimResult QueueSimulator::run(
    const std::vector<Request>& requests) const {
  for (std::size_t i = 1; i < requests.size(); ++i) {
    if (requests[i].arrival_seconds < requests[i - 1].arrival_seconds) {
      throw std::invalid_argument("QueueSimulator: trace not sorted");
    }
  }

  QueueSimResult result;
  const double idle_w =
      engine_.energy_config().system_idle_with_gpu.watts();

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
  std::vector<Request> batch;
  std::vector<const workloads::InstanceSpec*> specs;
  std::vector<std::string> owners;
  gpusim::LaunchPlan plan;
  std::vector<std::optional<cpusim::CpuTask>> profiles;
  std::vector<std::size_t> staged;
  std::vector<int> messages;
  const Optimizations optimizations;

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

    // ---- build the launch plan + profiles, in the daemon's plan order ----
    specs.clear();
    owners.clear();
    for (const Request& req : batch) {
      auto it = catalogue_.find(req.workload);
      if (it == catalogue_.end()) {
        throw std::out_of_range("QueueSimulator: unknown workload '" +
                                req.workload + "'");
      }
      specs.push_back(&it->second);
      owners.push_back("user" + std::to_string(req.user_id));
    }
    const std::vector<std::size_t> order = plan_order(
        batch.size(),
        [&](std::size_t b) -> std::string_view { return specs[b]->gpu.name; },
        [&](std::size_t b) -> std::string_view { return owners[b]; });
    plan.instances.clear();
    plan.reuse_constant_data = optimizations.constant_data_reuse;
    profiles.clear();
    staged.clear();
    messages.clear();
    for (const std::size_t b : order) {
      const workloads::InstanceSpec& spec = *specs[b];
      gpusim::KernelInstance inst;
      inst.desc = spec.gpu;
      inst.instance_id = static_cast<int>(plan.instances.size());
      inst.owner = owners[b];
      plan.instances.push_back(std::move(inst));
      cpusim::CpuTask task = spec.cpu;
      task.instance_id = plan.instances.back().instance_id;
      profiles.emplace_back(std::move(task));
      staged.push_back(static_cast<std::size_t>(spec.gpu.h2d_bytes.bytes()));
      messages.push_back(4);  // argument batching holds args until launch
    }

    const auto overhead =
        decision_.overhead(plan.instances, staged, messages, optimizations);
    const auto decision = decision_.decide(plan, profiles, overhead);

    // ---- execute ----
    const double start = std::max(ready, t_free);

    const GroupExecution exec = executor_.run(
        decision.chosen, plan, profiles, GroupExecutor::kUnlimitedBlocks,
        overhead, start);

    const double gap = start - t_free;  // node idles between batches
    const double finish = start + overhead.seconds() + exec.time.seconds();
    busy_and_gap_joules += gap * idle_w + overhead.seconds() * idle_w +
                           exec.energy.joules();

    batches_ctr.inc();
    requests_ctr.add(static_cast<double>(batch.size()));
    batch_hist->record(static_cast<double>(batch.size()));
    if (obs::Tracer::enabled()) {
      obs::SimClockScope sim_base(start);
      obs::sim_span("queue_sim.batch", 0.0, finish - start, 0,
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
