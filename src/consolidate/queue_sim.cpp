#include "consolidate/queue_sim.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/stats.hpp"
#include "consolidate/batch_former.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"

namespace ewc::consolidate {

namespace {

/// The former's groups on a simulated timeline: each starts once its batch
/// is ready and the GPU is free; the node idles in between.
struct SimulatedGpu final : BatchSink {
  const std::vector<Request>& requests;
  QueueSimResult& result;
  double idle_watts = 0.0;
  double ready = 0.0;  ///< when a batch closing now is ready to run
  double free = 0.0;   ///< when the GPU is free again
  double joules = 0.0;

  SimulatedGpu(const std::vector<Request>& trace, QueueSimResult& out,
               double idle)
      : requests(trace), result(out), idle_watts(idle) {}

  void closing(std::size_t launches) override {
    result.batch_sizes.push_back(static_cast<int>(launches));
  }
  double group_start() override { return std::max(ready, free); }
  void executed(BatchReport report, std::vector<LaunchRequest> launches,
                std::vector<common::Duration> /*finish_times*/) override {
    const double start = group_start();
    const double finish = start + report.total_time.seconds();
    joules += (start - free) * idle_watts + report.energy.joules();
    free = finish;
    if (obs::Tracer::enabled()) {
      obs::SimClockScope sim_base(start);
      obs::sim_span("queue_sim.group", 0.0, finish - start, 0,
                    "\"requests\":" + std::to_string(launches.size()) +
                        ",\"chosen\":\"" +
                        alternative_name(report.executed) + "\"");
    }
    for (const LaunchRequest& launch : launches) {
      const Request& req = requests[launch.request_id];
      result.outcomes[launch.request_id] = {req.user_id, req.workload,
                                            req.arrival_seconds, finish};
    }
  }
  void failed(std::vector<LaunchRequest> /*requests*/,
              const std::string& error) override {
    throw std::runtime_error("QueueSimulator: " + error);
  }
};

}  // namespace

QueueSimResult QueueSimulator::run(
    const std::vector<Request>& requests) const {
  QueueSimResult result;
  result.outcomes.resize(requests.size());
  SimulatedGpu gpu(requests, result,
                   engine_.energy_config().system_idle_with_gpu.watts());
  std::vector<workloads::InstanceSpec> mix;
  for (const auto& [name, spec] : catalogue_) mix.push_back(spec);
  BackendOptions options;
  options.batch_threshold = options_.batch_threshold;
  BatchFormer former(engine_, power_model_, served_mix(mix), options, gpu,
                     options_.enable_sim_cache);
  former.set_pool(options_.pool);

  // The batch timeout is a flush at the oldest pending arrival plus the
  // timeout. The trace's end flushes the same way: the runtime cannot know
  // no more requests are coming.
  double deadline = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& req = requests[i];
    if (i > 0 && req.arrival_seconds < requests[i - 1].arrival_seconds) {
      throw std::invalid_argument("QueueSimulator: trace not sorted");
    }
    const auto it = catalogue_.find(req.workload);
    if (it == catalogue_.end()) {
      throw std::out_of_range("QueueSimulator: unknown workload '" +
                              req.workload + "'");
    }
    if (former.pending() > 0 && req.arrival_seconds > deadline) {
      gpu.ready = deadline;
      former.flush();
    }
    if (former.pending() == 0) {
      deadline = req.arrival_seconds + options_.batch_timeout.seconds();
    }
    LaunchRequest launch;
    launch.owner = "user" + std::to_string(req.user_id);
    launch.request_id = i;
    launch.desc = it->second.gpu;
    launch.staged_bytes =
        static_cast<std::size_t>(it->second.gpu.h2d_bytes.bytes());
    launch.api_messages = 4;  // argument batching holds args until launch
    gpu.ready = req.arrival_seconds;
    former.add(std::move(launch));
  }
  gpu.ready = deadline;
  former.flush();

  result.makespan = common::Duration::from_seconds(gpu.free);
  result.energy = common::Energy::from_joules(gpu.joules);
  std::vector<double> latencies;
  latencies.reserve(result.outcomes.size());
  obs::Histogram* latency_hist =
      obs::Registry::instance().histogram("queue_sim.request_latency_seconds");
  for (const auto& o : result.outcomes) {
    latencies.push_back(o.latency_seconds());
    latency_hist->record(o.latency_seconds());
  }
  result.mean_latency_seconds = common::mean(latencies);
  result.p95_latency_seconds = common::percentile(latencies, 95.0);

  result.run_cache_stats = former.run_cache_stats();
  result.predict_cache_stats = former.predict_cache_stats();
  gpusim::CacheCounters("queue_sim.run_cache").publish(result.run_cache_stats);
  gpusim::CacheCounters("queue_sim.predict_cache")
      .publish(result.predict_cache_stats);
  return result;
}

}  // namespace ewc::consolidate
