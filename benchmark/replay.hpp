// Offline replay of a shard's live batches, for per-layer timing.
//
// A shard prints one REPORT line per processed candidate group when it
// drains. The replay rebuilds the shard's backend recipe (same simulator,
// same trained power model, same templates and CPU profiles), re-runs each
// group through the public calls the backend makes — DecisionEngine::decide
// and then FluidEngine::run or CpuEngine::run for the chosen alternative —
// and times them on a quiet machine after the daemons have exited. It also
// times decide's parts (ConsolidationModel::predict, GpuPowerModel::predict,
// CpuEngine::run) as separate calls. A group replays exactly when its
// overhead, execution time and energy bits equal the REPORT's, which proves
// the timed work is the work the shard did.
//
// Known coupling: src/consolidate exposes no group executor, so replay.cpp
// copies Backend::process_group's orchestration (consolidated chunking by
// max_total_blocks, individual runs, the CPU energy with its GPU-idle adder,
// the overhead energy) and `ewcsim serve`'s recipe (templates, power-model
// training). When either changes, groups stop replaying exactly and the
// replayed layer numbers are void (replay.exact_share < 1); the daemon's
// answers are still checked.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "consolidate/backend.hpp"
#include "consolidate/decision.hpp"
#include "consolidate/template_registry.hpp"
#include "fleet.hpp"
#include "gpusim/engine.hpp"
#include "spans.hpp"
#include "workloads/paper_configs.hpp"

namespace ewc::bench {

/// Wall-clock cost of one replayed group, in microseconds.
struct ReplayGroup {
  int n = 0;
  bool decided = false;  ///< a template covered it, so decide() ran
  double decide_us = 0.0;
  double perf_us = 0.0;   ///< ConsolidationModel::predict calls of decide
  double power_us = 0.0;  ///< GpuPowerModel::predict calls of decide
  double cpu_us = 0.0;    ///< decide's CpuEngine::run
  double gpusim_us = 0.0; ///< FluidEngine::run executing the choice
  int gpusim_runs = 0;
  double busy_us = 0.0;   ///< decide + executing the choice
  bool exact = false;
};

class Replayer {
 public:
  /// The backend recipe `ewcsim serve` builds for this mix.
  explicit Replayer(const std::vector<workloads::InstanceSpec>& mix);

  /// Replay the first `limit` groups of one shard's REPORT list (instance
  /// ids continue across groups, as in the shard). Spans of the first
  /// groups go to `spans`. Throws std::runtime_error on a kernel the mix
  /// does not know.
  std::vector<ReplayGroup> replay(const std::vector<Report>& reports,
                                  std::size_t limit, SpanLog* spans);

 private:
  ReplayGroup replay_one(const Report& report, int* next_instance_id,
                         SpanLog* spans, std::uint64_t span_id);

  gpusim::FluidEngine engine_;
  consolidate::BackendOptions options_;
  consolidate::DecisionEngine decision_;
  consolidate::TemplateRegistry templates_;
  std::map<std::string, workloads::InstanceSpec> by_kernel_;
};

}  // namespace ewc::bench
