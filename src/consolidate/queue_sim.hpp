// Trace-driven batching/queueing simulation (paper Section VII).
//
// The backend "keeps track of the number of workloads that issue GPU
// kernels" and consolidates once the count reaches a threshold (10 x the
// number of GPUs), which the paper says "can be adjusted based on further
// observation": it replays a request trace in simulated time through the
// daemon's own BatchFormer, so batches close where ewcd's would on the same
// arrivals, with the batch timeout as a flush, and reports the *request
// latency* distribution alongside energy — the throughput/latency
// trade-off the threshold knob controls.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/sim_cache.hpp"
#include "power/power_model.hpp"
#include "workloads/paper_configs.hpp"

namespace ewc::consolidate {

/// One request of a trace: who sent which workload, and when.
struct Request {
  double arrival_seconds = 0.0;
  std::string workload;  ///< catalogue name (an InstanceSpec name)
  int user_id = 0;
};

struct QueueSimOptions {
  int batch_threshold = 10;
  /// A batch older than this executes even if under-filled (bounds latency).
  common::Duration batch_timeout = common::Duration::from_seconds(30.0);
  /// Memoize runs, predictions and close checks as the daemon does. Hits
  /// are bit-identical to fresh computations, so this only changes
  /// wall-clock time; off is the reference the memos are checked against.
  bool enable_sim_cache = true;
  /// Optional pool for evaluating the decision alternatives concurrently;
  /// nullptr keeps everything on the calling thread.
  common::ThreadPool* pool = nullptr;
};

struct RequestOutcome {
  int user_id = 0;
  std::string workload;
  double arrival_seconds = 0.0;
  double finish_seconds = 0.0;
  double latency_seconds() const { return finish_seconds - arrival_seconds; }
  bool operator==(const RequestOutcome&) const = default;
};

struct QueueSimResult {
  std::vector<RequestOutcome> outcomes;
  common::Duration makespan = common::Duration::zero();
  common::Energy energy = common::Energy::zero();  ///< busy + idle gaps
  std::vector<int> batch_sizes;  ///< launches per closed batch, in order
  double mean_latency_seconds = 0.0;
  double p95_latency_seconds = 0.0;
  /// FluidEngine run memoization over this replay (zeros when disabled).
  gpusim::CacheStats run_cache_stats;
  /// Decision-engine prediction memoization (zeros when disabled).
  gpusim::CacheStats predict_cache_stats;
};

/// Batches form and run as in a daemon serving the catalogue (served_mix)
/// with default BackendOptions. A request is a launch of its spec's kernel
/// that staged the spec's h2d bytes in 4 API messages, owned by "user<N>".
class QueueSimulator {
 public:
  /// @param catalogue  workload-name -> calibrated spec for every workload
  ///                   that may appear in a trace.
  QueueSimulator(const gpusim::FluidEngine& engine,
                 power::GpuPowerModel power_model,
                 std::map<std::string, workloads::InstanceSpec> catalogue,
                 QueueSimOptions options = {})
      : engine_(engine),
        power_model_(std::move(power_model)),
        catalogue_(std::move(catalogue)),
        options_(options) {}

  /// Replay `requests` (must be sorted by arrival time) on a fresh former.
  /// @throws std::out_of_range for workloads missing from the catalogue;
  ///         std::invalid_argument for an unsorted trace;
  ///         std::runtime_error when an injected fault fails a batch.
  QueueSimResult run(const std::vector<Request>& requests) const;

 private:
  const gpusim::FluidEngine& engine_;
  power::GpuPowerModel power_model_;
  std::map<std::string, workloads::InstanceSpec> catalogue_;
  QueueSimOptions options_;
};

}  // namespace ewc::consolidate
