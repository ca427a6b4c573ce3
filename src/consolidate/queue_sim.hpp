// Trace-driven batching/queueing simulation (paper Section VII).
//
// The backend "keeps track of the number of workloads that issue GPU
// kernels" and consolidates once the count reaches a threshold (10 x the
// number of GPUs), which the paper says "can be adjusted based on further
// observation". This module performs that observation: it replays a request
// trace in simulated time against a single GPU whose batches form when the
// threshold is reached (or a timeout expires, or the trace drains), runs
// each batch through the decision engine, and reports the *request latency*
// distribution alongside energy — the throughput/latency trade-off the
// threshold knob controls.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "consolidate/decision.hpp"
#include "consolidate/executor.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/sim_cache.hpp"
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
  /// Memoize FluidEngine runs (gpusim::RunMemo) and the decision engine's
  /// predictions per batch shape. Hits are bit-identical to fresh
  /// simulations, so this only changes wall-clock time, never results; off
  /// runs the engine directly, the reference the cache is checked against.
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
};

struct QueueSimResult {
  std::vector<RequestOutcome> outcomes;
  common::Duration makespan = common::Duration::zero();
  common::Energy energy = common::Energy::zero();  ///< busy + idle gaps
  int batches = 0;
  double mean_latency_seconds = 0.0;
  double p95_latency_seconds = 0.0;
  /// FluidEngine run memoization over this replay (zeros when disabled).
  gpusim::CacheStats run_cache_stats;
  /// Decision-engine prediction memoization (zeros when disabled).
  gpusim::CacheStats predict_cache_stats;
};

/// Batches run the daemon's execute step (GroupExecutor) with the
/// framework's default costs, optimizations and CPU, and the model-based
/// decision policy.
class QueueSimulator {
 public:
  /// Entries in each of the simulator's two memos (FluidEngine runs and
  /// predictions) when `enable_sim_cache` is on.
  static constexpr std::size_t kMemoCapacity = 1024;

  /// @param catalogue  workload-name -> calibrated spec for every workload
  ///                   that may appear in a trace.
  QueueSimulator(const gpusim::FluidEngine& engine,
                 power::GpuPowerModel power_model,
                 std::map<std::string, workloads::InstanceSpec> catalogue,
                 QueueSimOptions options = {});

  /// Replay `requests` (must be sorted by arrival time).
  /// @throws std::out_of_range for workloads missing from the catalogue;
  ///         std::invalid_argument for an unsorted trace.
  QueueSimResult run(const std::vector<Request>& requests) const;

 private:
  const gpusim::FluidEngine& engine_;
  DecisionEngine decision_;
  std::map<std::string, workloads::InstanceSpec> catalogue_;
  QueueSimOptions options_;
  // const run() populates the memo; RunMemo synchronizes internally.
  mutable std::unique_ptr<gpusim::RunMemo> run_memo_;
  GroupExecutor executor_;
};

}  // namespace ewc::consolidate
