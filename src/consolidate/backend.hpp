// The consolidation backend daemon (paper Section IV).
//
// A daemon launched before any workload: it owns the only real GPU context,
// listens for frontend connections, conducts every CUDA API call on their
// behalf (staging cross-context copies through its pre-allocated buffer),
// accumulates pending kernel launches, and — once enough work is queued —
// selects template-covered candidate sets, asks the decision engine whether
// consolidation is energy-beneficial, and executes the batch on the GPU
// (consolidated or individual) or on the CPU.
//
// Time accounting: the framework's own overheads (IPC, staging, barriers)
// are charged from the calibrated cost model; execution times and energies
// come from the simulators. Host threads are real; the clock is simulated.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/channel.hpp"
#include "consolidate/costs.hpp"
#include "consolidate/decision.hpp"
#include "consolidate/executor.hpp"
#include "consolidate/protocol.hpp"
#include "consolidate/template_registry.hpp"
#include "cpusim/engine.hpp"
#include "cudart/context.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/sim_cache.hpp"
#include "obs/registry.hpp"

namespace ewc::consolidate {

struct BackendOptions {
  FrameworkCosts costs;
  Optimizations optimizations;
  DecisionPolicy policy = DecisionPolicy::kModelBased;
  /// Process a batch when this many launches are pending (the paper uses
  /// 10 x the number of GPUs); flush() forces earlier processing. Once a
  /// batch has closed here, every arrival that leaves at least half of it
  /// pending is checked, and the batch closes early when the decision
  /// engine predicts it charges no more joules per request than a full
  /// batch of the same kernel mix would (docs/SERVER.md).
  int batch_threshold = 10;
  cpusim::CpuConfig cpu_config;
  /// Wall-clock budget for one DecisionEngine::decide call, enforced as a
  /// bounded wait: decide() runs on a dedicated decision thread and the
  /// batch loop waits at most this long before degrading the group to the
  /// serial individual-GPU plan, so even a hung predictor cannot wedge a
  /// batch (or the clients queued behind it). An overrunning decide keeps
  /// the decision thread busy — its late result is discarded unread, and a
  /// following group whose decide cannot start in time degrades the same
  /// way. shutdown() still joins the decision thread, so it waits out an
  /// in-flight decide (injected stalls are finite). zero() = unlimited,
  /// decide() runs inline on the batch thread.
  common::Duration decision_deadline = common::Duration::zero();
};

/// What happened to one processed candidate group. A batch of pending
/// kernels is PARTITIONED by template coverage (paper Section VII: the
/// backend "chooses workload candidates according to the available
/// consolidation templates" and lets uncovered kernels "run normally"), so
/// one flush can yield several reports.
struct BatchReport {
  int num_instances = 0;
  std::vector<std::string> kernel_names;
  std::optional<Decision> decision;  ///< absent when no template matched
  Alternative executed = Alternative::kIndividualGpu;
  bool template_found = false;
  std::string template_name;  ///< empty when none matched
  int consolidated_launches = 0;  ///< >1 when split by template capacity
  common::Duration overhead = common::Duration::zero();
  common::Duration execution_time = common::Duration::zero();
  common::Duration total_time = common::Duration::zero();
  common::Energy energy = common::Energy::zero();
  /// The decision engine faulted or blew its deadline and the group fell
  /// back to serial individual-GPU execution (`decision` stays absent).
  bool degraded = false;
  std::string degraded_reason;
};

class Backend {
 public:
  /// Entries in each of the backend's two memos: FluidEngine runs
  /// (gpusim::RunMemo) and the decision engine's predictions. A batch's
  /// repeated shapes — its single-instance plans, its consolidated chunks
  /// and their predictions — fit many times over, while a stream of
  /// ever-different consolidated mixes cannot grow the daemon's memory.
  static constexpr std::size_t kMemoCapacity = 32;
  /// Entries in the close-check memo, keyed by a pending batch in plan
  /// order. A 2:1 encryption/sorting stream at threshold 16 checks at most
  /// 44 distinct pending batches and a one-kernel stream 1, so their checks
  /// all fit, while ever-new mixes cannot grow the daemon's memory.
  static constexpr std::size_t kCloseMemoCapacity = 64;

  Backend(const gpusim::FluidEngine& engine, power::GpuPowerModel power_model,
          TemplateRegistry templates, BackendOptions options);
  ~Backend();

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  // ---- frontend-facing ----
  common::Channel<BackendMessage>& channel() { return channel_; }
  /// The backend's device context; every frontend allocation lives here.
  /// Lock context_mutex() around any access.
  cudart::Context& device_context() { return context_; }
  std::mutex& context_mutex() { return context_mutex_; }
  const BackendOptions& options() const { return options_; }

  /// Register the CPU profile of one request instance of `kernel_name`
  /// (paper: CPU performance/energy profiles are assumed available).
  void set_cpu_profile(const std::string& kernel_name, cpusim::CpuTask task);

  // ---- main-thread control ----
  /// Process everything pending now; blocks until done.
  void flush();
  void shutdown();

  // ---- results ----
  std::vector<BatchReport> reports() const;
  /// Move every report out, leaving none, for a caller done with the
  /// backend's results (a daemon printing them at exit): no copy.
  std::vector<BatchReport> take_reports();
  common::Duration total_time() const;
  common::Energy total_energy() const;

 private:
  /// One candidate group of a prepared batch: its template, plan, CPU
  /// profiles and framework overhead.
  struct PreparedGroup {
    const ConsolidationTemplate* tmpl = nullptr;  ///< nullptr: run normally
    std::vector<std::size_t> members;  ///< ranks in the batch's plan order
    gpusim::LaunchPlan plan;
    std::vector<std::optional<cpusim::CpuTask>> profiles;
    common::Duration overhead = common::Duration::zero();
    /// The close check's evaluation, which the group's decide reuses when
    /// the batch closes on it; absent, decide evaluates.
    std::optional<Decision> evaluated;
  };
  /// A pending batch in plan order (plan_order.hpp), partitioned by
  /// template coverage (paper Section VII). Preparing consumes no instance
  /// ids: the plans number theirs from `first_id`, the next free id, and
  /// only executing takes them.
  struct PreparedBatch {
    std::vector<std::size_t> order;  ///< positions in the pending batch
    std::vector<PreparedGroup> groups;
    int first_id = 0;
  };
  /// A close check's outcome on one pending batch in plan order: whether
  /// it closes and, when it does, the batch as the check prepared it, with
  /// each group's evaluation.
  struct CloseVerdict {
    bool close = false;
    PreparedBatch prepared;
  };
  /// Outcome of one decision-engine call on the decision thread.
  struct DecideOutcome {
    bool ok = false;
    Decision decision;
    std::string error;  ///< what the call threw, when !ok
  };
  /// One decision-engine call shipped to the decision thread. The group is
  /// a copy: the batch thread may abandon the job at the deadline and move
  /// on while the decision thread is still reading it.
  struct DecideJob {
    PreparedGroup group;
    bool pure = false;  ///< evaluate() for the close check, not decide()
    std::shared_ptr<common::Channel<DecideOutcome>> done;
  };

  void run_loop();
  void decision_loop();
  /// DecisionEngine::decide for `group` (reusing its evaluation when it has
  /// one), or, when `pure`, DecisionEngine::evaluate.
  Decision ask_engine(const PreparedGroup& group, bool pure) const;
  /// Run ask_engine() under the configured deadline (bounded wait on the
  /// decision thread, or inline when no deadline is set). nullopt + reason
  /// when it threw or overran.
  std::optional<Decision> bounded_decide(const PreparedGroup& group, bool pure,
                                         std::string* failure);
  /// Answer every request's reply channel with an error (requests that will
  /// never execute, e.g. when the channel closes under a non-empty batch).
  static void fail_pending(std::vector<LaunchRequest>& pending,
                           const std::string& error);
  /// Prepare `batch`, taking its positions in `order` (its plan order).
  PreparedBatch prepare_batch(const std::vector<LaunchRequest>& batch,
                              std::vector<std::size_t> order);
  PreparedBatch prepare_batch(const std::vector<LaunchRequest>& batch);
  /// `batch`'s positions in plan order (plan_order.hpp).
  static std::vector<std::size_t> plan_order_of(
      const std::vector<LaunchRequest>& batch);
  /// What `prepared` is predicted to charge if it ran now: the chosen
  /// estimate's charge, summed over its groups. nullopt when a group has no
  /// template or a prediction throws or overruns the deadline. Keeps each
  /// group's evaluation for its decide.
  std::optional<common::Energy> predict_batch(PreparedBatch& prepared);
  /// A `size`-launch batch of `pending`'s kernel mix, in plan order: each
  /// kernel's share of `size` by largest remainder (the earlier kernel in
  /// plan order first on a tie), filled with copies of that kernel's
  /// pending launches (without reply channels), the earlier ones in plan
  /// order taking any extra copy.
  static std::vector<LaunchRequest> full_batch_like(
      const std::vector<LaunchRequest>& pending,
      const std::vector<std::size_t>& order, std::size_t size);
  /// Whether `prepared` (prepared from `pending`) is predicted to charge no
  /// more per request than a `threshold`-launch batch of the same mix.
  /// nullopt when either prediction declines.
  std::optional<bool> costs_no_more_than_full(
      PreparedBatch& prepared, const std::vector<LaunchRequest>& pending,
      std::size_t threshold);
  /// The close check, memoized on the pending batch in plan order: the
  /// batch prepared to close now, or nullopt to keep it open. Only a check
  /// whose predictions all succeed is memoized.
  std::optional<PreparedBatch> close_check(
      const std::vector<LaunchRequest>& pending, std::size_t threshold);
  /// Execute `prepared` (prepared from `batch`), counting the close in
  /// `why`.
  void execute_batch(std::vector<LaunchRequest>& batch,
                     const PreparedBatch& prepared, const obs::Counter& why);
  /// Execute one candidate group (template-covered, or an uncovered rest).
  void process_group(std::vector<LaunchRequest>& requests,
                     const PreparedGroup& group);

  const gpusim::FluidEngine& engine_;
  /// Every GPU execution goes through here (batch thread only).
  gpusim::RunMemo memo_;
  GroupExecutor executor_;
  DecisionEngine decision_;
  /// Close-check verdicts by everything a check reads (batch thread only).
  gpusim::SimCache<CloseVerdict> close_memo_;
  TemplateRegistry templates_;
  BackendOptions options_;

  common::Channel<BackendMessage> channel_;
  cudart::Context context_;
  std::mutex context_mutex_;

  mutable std::mutex state_mutex_;
  std::map<std::string, cpusim::CpuTask> cpu_profiles_;
  /// Bumped by set_cpu_profile, so a memoized verdict never outlives the
  /// profiles it was evaluated with.
  std::int64_t profiles_version_ = 0;
  std::vector<BatchReport> reports_;
  common::Duration total_time_ = common::Duration::zero();
  common::Energy total_energy_ = common::Energy::zero();
  int next_instance_id_ = 0;

  /// Why batches closed: at the threshold, early (a close check passed),
  /// or by a flush or shutdown; and the close checks made, one per checked
  /// arrival.
  obs::Counter closes_threshold_;
  obs::Counter closes_early_;
  obs::Counter closes_flush_;
  obs::Counter close_checks_;
  /// Each batch's fill time, first pending launch to close (steady clock).
  obs::Histogram* batch_fill_ = nullptr;
  /// Each close check's own duration (steady clock), memo hit or miss.
  obs::Histogram* close_check_seconds_ = nullptr;
  gpusim::CacheCounters close_cache_counters_{"backend.close_cache"};

  std::thread worker_;
  /// Decision thread (started only when decision_deadline > 0): serializes
  /// decide() calls off the batch thread so their wait can be bounded.
  common::Channel<DecideJob> decide_jobs_;
  std::thread decision_worker_;
};

}  // namespace ewc::consolidate
