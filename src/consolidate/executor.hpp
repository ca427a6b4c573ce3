// The execute step of one candidate group (paper Section IV): run the group
// on the alternative the decision engine chose — consolidated launches on
// the GPU, the kernels one after another on the GPU, or the CPU — and say
// what that took. BatchFormer executes every group through it, for the
// ewcd backend and the queue simulator alike.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "consolidate/decision.hpp"
#include "cpusim/cpu_config.hpp"
#include "cpusim/task.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/sim_cache.hpp"

namespace ewc::consolidate {

/// The request and distributed-trace ids a plan position runs under.
struct RequestContext {
  std::uint64_t request_id = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
};

/// What one group's execution took.
struct GroupExecution {
  /// Execution time; the framework overhead before it is not included.
  common::Duration time = common::Duration::zero();
  /// Execution energy. A CPU run includes the idle GPU's draw; the node's
  /// idle draw through the overhead window is the caller's to add.
  common::Energy energy = common::Energy::zero();
  /// Each plan position's finish, measured from the group's start: the
  /// overhead, then the launches that ran before it, then its own finish.
  std::vector<common::Duration> finish_times;
  /// Consolidated launches (>1 when the block capacity splits the group);
  /// 0 for the serial GPU and CPU paths.
  int launches = 0;
};

class GroupExecutor {
 public:
  /// Block capacity for a caller with no template: one launch per group.
  static constexpr int kUnlimitedBlocks = std::numeric_limits<int>::max();

  /// GPU runs go through `memo` when one is given, else straight to
  /// `engine`, the uncached reference a memo is checked against. Both must
  /// outlive the executor.
  GroupExecutor(const gpusim::FluidEngine& engine, gpusim::RunMemo* memo,
                cpusim::CpuConfig cpu_config);

  /// Execute `plan` on `chosen`. A consolidated group is split into
  /// back-to-back launches of at most `max_total_blocks` blocks; the serial
  /// path runs each instance alone, in plan order; the CPU path needs every
  /// position's profile. Simulated-time events are anchored at
  /// `sim_anchor` + `overhead` (+ the launches before them), and each serial
  /// run executes under its position's `contexts` entry.
  GroupExecution run(
      Alternative chosen, const gpusim::LaunchPlan& plan,
      const std::vector<std::optional<cpusim::CpuTask>>& profiles,
      int max_total_blocks, common::Duration overhead, double sim_anchor,
      std::span<const RequestContext> contexts) const;

 private:
  gpusim::RunOutcome gpu_run(const gpusim::LaunchPlan& plan) const;

  const gpusim::FluidEngine& engine_;
  gpusim::RunMemo* memo_;
  cpusim::CpuConfig cpu_config_;
};

}  // namespace ewc::consolidate
