// Energy-aware consolidation decision engine (paper Section VII, Figure 6).
//
// For a candidate set of pending kernels the engine predicts, with the
// Section V performance model and the Section VI power model, the execution
// time, average power and energy of three alternatives:
//   (a) consolidate onto the GPU as one kernel,
//   (b) run each kernel on the GPU individually (serial),
//   (c) run the instances on the multicore CPU (profiles assumed available).
// Each alternative is priced on one ledger: what the backend charges the
// node if it runs (execution energy E = P x T, the idle GPU's draw through a
// CPU run, and the node's idle draw through the framework overhead, which
// every alternative pays). Consolidation must beat BOTH alternatives to be
// chosen, mirroring the paper's "judicious consolidation" rule.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "cpusim/engine.hpp"
#include "gpusim/device_config.hpp"
#include "gpusim/kernel_desc.hpp"
#include "gpusim/sim_cache.hpp"
#include "perf/consolidation_model.hpp"
#include "power/power_model.hpp"
#include "consolidate/costs.hpp"

namespace ewc::consolidate {

using common::Duration;
using common::Energy;

enum class Alternative { kConsolidatedGpu, kIndividualGpu, kCpu };

const char* alternative_name(Alternative a);

/// Extra wall power the idle GPU adds to the node when a group runs on the
/// CPU (the GPU stays installed, unlike the paper's disconnected-GPU
/// baseline measurements).
common::Power gpu_idle_adder(const gpusim::EnergyConfig& e);

struct AlternativeEstimate {
  Alternative which = Alternative::kConsolidatedGpu;
  Duration time = Duration::zero();
  /// What BatchFormer::process_group charges if this alternative runs: its
  /// execution energy, plus the idle GPU's draw through a CPU run, plus
  /// `system_idle_with_gpu` x the framework overhead. The alternatives are
  /// compared by it.
  Energy charge = Energy::zero();
  bool feasible = true;
  std::string note;
};

struct Decision {
  Alternative chosen = Alternative::kConsolidatedGpu;
  std::vector<AlternativeEstimate> estimates;  ///< all alternatives
  const AlternativeEstimate& chosen_estimate() const;
};

/// How the backend picks (ablation A4 swaps the policy).
enum class DecisionPolicy { kModelBased, kAlwaysConsolidate, kNeverConsolidate };

class DecisionEngine {
 public:
  /// `energy` is the node's ground-truth energy configuration, the one the
  /// backend charges by (FluidEngine::energy_config()).
  DecisionEngine(gpusim::DeviceConfig dev, power::GpuPowerModel power_model,
                 cpusim::CpuConfig cpu_cfg, FrameworkCosts costs,
                 gpusim::EnergyConfig energy = gpusim::c1060_energy());

  /// Estimated framework overhead for staging/coordinating `requests`
  /// (public so the backend charges the same cost it predicted with).
  Duration overhead(
      const std::vector<gpusim::KernelInstance>& instances,
      const std::vector<std::size_t>& staged_bytes,
      const std::vector<int>& api_messages, const Optimizations& opts) const;

  /// Evaluate the three alternatives for a candidate consolidation. The CPU
  /// alternative needs per-instance CPU profiles; if any are missing the CPU
  /// path is reported infeasible.
  ///
  /// With a pool attached the GPU alternatives are evaluated concurrently
  /// while the CPU alternative runs on the calling thread; the returned
  /// estimates are in the same fixed order either way. Do not call decide()
  /// from inside a task running on the attached pool.
  ///
  /// decide() is evaluate() behind the "decision.decide" fault site, timed
  /// into the `decision.decide_seconds` histogram and traced as a span.
  Decision decide(const gpusim::LaunchPlan& plan,
                  const std::vector<std::optional<cpusim::CpuTask>>& cpu_profiles,
                  Duration framework_overhead,
                  DecisionPolicy policy = DecisionPolicy::kModelBased) const;

  /// decide() for a group of `instances` whose evaluation was already made
  /// (the backend's close check): the same fault draw, histogram sample and
  /// span, around `evaluated`, which is returned as it is.
  Decision decide(Decision evaluated, std::size_t instances) const;

  /// The pure evaluation behind decide(): the same estimates and choice,
  /// with no fault-injection draw, no histogram sample and no span. Only
  /// the prediction memo changes.
  Decision evaluate(
      const gpusim::LaunchPlan& plan,
      const std::vector<std::optional<cpusim::CpuTask>>& cpu_profiles,
      Duration framework_overhead,
      DecisionPolicy policy = DecisionPolicy::kModelBased) const;

  /// Evaluate the two GPU alternatives on `pool` (nullptr = calling thread).
  void set_pool(common::ThreadPool* pool) { pool_ = pool; }

  /// Memoize GPU time/power predictions keyed by the id-free plan
  /// signature, LRU-bounded at `capacity` entries. Framework overhead is
  /// applied *outside* the cache, so the per-instance predictions of the
  /// serial alternative share entries across batch positions and groups.
  /// The device and power model are fixed per engine, so neither appears in
  /// the key.
  void enable_prediction_cache(std::size_t capacity);
  gpusim::CacheStats prediction_cache_stats() const;

  const perf::ConsolidationModel& perf_model() const { return perf_; }
  const power::GpuPowerModel& power_model() const { return power_; }

 private:
  /// A pure (overhead-free) GPU prediction — the unit the cache stores.
  struct GpuPrediction {
    Duration time = Duration::zero();
    Energy energy = Energy::zero();
    bool type1 = false;
  };

  GpuPrediction predict_gpu(const gpusim::LaunchPlan& plan) const;
  /// decide()'s wrapping: the fault site, the histogram sample and the span
  /// around `eval`, which makes (or returns) the decision.
  template <typename Eval>
  Decision hooked(std::size_t instances, Eval&& eval) const;

  gpusim::DeviceConfig dev_;
  perf::ConsolidationModel perf_;
  power::GpuPowerModel power_;
  cpusim::CpuConfig cpu_cfg_;
  FrameworkCosts costs_;
  gpusim::EnergyConfig energy_;
  common::ThreadPool* pool_ = nullptr;
  // SimCache is internally synchronized, so the const decide() path may
  // populate it; mutable keeps that invisible to callers.
  mutable std::unique_ptr<gpusim::SimCache<GpuPrediction>> cache_;
};

}  // namespace ewc::consolidate
