// Batch formation (paper Sections IV and VII), one rule for the ewcd
// backend (fed from its channel) and the queue simulator (fed a trace on
// simulated time). A batch closes at its threshold T, on a flush, or — once
// a batch has closed at T — at any arrival that leaves ⌈T/2⌉..T−1 pending
// when that is predicted to charge no more joules per request than a
// T-launch batch of the same kernel mix (docs/SERVER.md). A closed batch is
// put in plan order (plan_order.hpp) and partitioned by template coverage;
// under the model-based policy a group of several kernels runs as one part
// per kernel when the parts charge less than the whole. Each group or part is
// decided and executed (GroupExecutor) in turn, and goes to the owner's
// sink. The former reads no clock and starts no thread but a decision
// deadline's: what it forms depends only on the order of its inputs.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <thread>

#include "consolidate/executor.hpp"
#include "consolidate/protocol.hpp"
#include "consolidate/template_registry.hpp"
#include "obs/registry.hpp"
#include "workloads/paper_configs.hpp"

namespace ewc::consolidate {

struct BackendOptions {
  FrameworkCosts costs;
  Optimizations optimizations;
  DecisionPolicy policy = DecisionPolicy::kModelBased;
  /// Process a batch when this many launches are pending (the paper uses
  /// 10 x the number of GPUs), or earlier by the close check or a flush.
  int batch_threshold = 10;
  cpusim::CpuConfig cpu_config;
  /// Wall-clock budget for one DecisionEngine::decide call: decide() runs
  /// on a decision thread, and a group whose decide has not answered in
  /// time degrades to the serial individual-GPU plan, so a hung predictor
  /// cannot wedge a batch. A late result is discarded unread; shutdown()
  /// waits out an in-flight decide. zero() = decide inline.
  common::Duration decision_deadline = common::Duration::zero();
};

/// What happened to one candidate group. A batch is partitioned by template
/// coverage (paper Section VII: uncovered kernels "run normally"), and a
/// group may run as one part per kernel, so one batch can yield several
/// reports.
struct BatchReport {
  /// The closed batch the group came from, numbered from 0 in close order:
  /// a batch's groups and parts share it.
  std::int64_t batch = 0;
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
  /// decide() faulted or overran: the group ran serially, no `decision`.
  bool degraded = false;
  std::string degraded_reason;
};

/// How a workload mix is served: the paper's templates plus
/// "experiment_mix", which hosts every kernel of the mix, and each kernel's
/// CPU profile (the last spec's, when specs share a kernel name).
struct ServedMix {
  TemplateRegistry templates;
  std::map<std::string, cpusim::CpuTask> cpu_profiles;
};
ServedMix served_mix(std::span<const workloads::InstanceSpec> mix);

/// Where a BatchFormer's results go; its owner implements it.
class BatchSink {
 public:
  /// A close check starts, then ends (a daemon times it here).
  virtual void checking() {}
  virtual void checked() {}
  /// A batch of `launches` closes; its groups (or their parts) follow.
  virtual void closing(std::size_t /*launches*/) {}
  /// A group starts executing. Returns where it starts on the simulated
  /// timeline, where its trace events are anchored.
  virtual double group_start() = 0;
  /// A group ran: its launches in plan order, each one's finish from the
  /// group's start.
  virtual void executed(BatchReport report, std::vector<LaunchRequest> requests,
                        std::vector<common::Duration> finish_times) = 0;
  /// `requests` will never execute.
  virtual void failed(std::vector<LaunchRequest> requests,
                      const std::string& error) = 0;

 protected:
  ~BatchSink() = default;
};

class BatchFormer {
 public:
  /// Entries in each execution memo (FluidEngine runs and predictions): a
  /// batch's repeated shapes fit many times over, while ever-different
  /// mixes cannot grow the daemon's memory.
  static constexpr std::size_t kMemoCapacity = 32;
  /// Entries in the close-check memo, keyed by a pending batch in plan
  /// order: the ≤44 distinct pending batches of a 2:1 encryption/sorting
  /// stream at threshold 16 all fit.
  static constexpr std::size_t kCloseMemoCapacity = 64;

  /// Results go to `sink`, which must outlive the former. `memoize` off
  /// computes every run, prediction and close check afresh: the reference
  /// the memos are checked against.
  BatchFormer(const gpusim::FluidEngine& engine,
              power::GpuPowerModel power_model, ServedMix mix,
              BackendOptions options, BatchSink& sink, bool memoize = true);
  ~BatchFormer();
  BatchFormer(const BatchFormer&) = delete;
  BatchFormer& operator=(const BatchFormer&) = delete;

  const BackendOptions& options() const { return options_; }
  /// Safe from any thread.
  void set_cpu_profile(const std::string& kernel_name, cpusim::CpuTask task);
  /// Evaluate the decision alternatives on `pool` (nullptr: inline).
  void set_pool(common::ThreadPool* pool) { decision_.set_pool(pool); }

  /// The execution memos' hits and misses (zeros when not memoizing).
  gpusim::CacheStats run_cache_stats() const {
    return memo_ ? memo_->stats() : gpusim::CacheStats{};
  }
  gpusim::CacheStats predict_cache_stats() const {
    return decision_.prediction_cache_stats();
  }

  std::size_t pending() const { return pending_.size(); }
  /// Queue `launch`; the pending batch closes when the close rule says so.
  void add(LaunchRequest launch);
  void flush();  ///< close what is pending
  void abandon(const std::string& error);  ///< fail what is pending
  /// Join the decision thread, waiting out an in-flight decide.
  void stop();

 private:
  struct PreparedGroup {
    const ConsolidationTemplate* tmpl = nullptr;  ///< nullptr: run normally
    std::vector<std::size_t> members;  ///< ranks in the batch's plan order
    gpusim::LaunchPlan plan;
    std::vector<std::optional<cpusim::CpuTask>> profiles;
    common::Duration overhead = common::Duration::zero();
    /// The close check's or the split pricing's evaluation, for the group's
    /// decide to reuse.
    std::optional<Decision> evaluated;
    /// Why pricing the whole group declined (a throw or an overrun): its
    /// decide degrades at once instead of waiting out a second deadline.
    std::optional<std::string> declined;
    /// On the first part of a split group: the whole group's charge minus
    /// the parts' charges.
    std::optional<common::Energy> split_saved;
  };
  /// A pending batch in plan order, partitioned by template coverage (and,
  /// once its splits are priced, into parts). The plans number their
  /// instances from `first_id`, the next free id; only executing takes the
  /// ids.
  struct PreparedBatch {
    std::vector<std::size_t> order;  ///< positions in the pending batch
    std::vector<PreparedGroup> groups;
    int first_id = 0;
  };
  /// Outcome of one decision-engine call on the decision thread.
  struct DecideOutcome {
    std::optional<Decision> decision;
    std::string error;  ///< what the call threw, when no decision
  };
  /// One call shipped to the decision thread. The group is a copy: the
  /// feeding thread may walk away at the deadline while it is being read.
  struct DecideJob {
    PreparedGroup group;
    bool pure = false;  ///< evaluate() for the close check, not decide()
    std::shared_ptr<common::Channel<DecideOutcome>> done;
  };

  void decision_loop();
  /// DecisionEngine::decide for `group` (reusing its evaluation when it has
  /// one), or, when `pure`, DecisionEngine::evaluate.
  Decision ask_engine(const PreparedGroup& group, bool pure) const;
  /// ask_engine() under the decision deadline; nullopt + reason when it
  /// threw or overran.
  std::optional<Decision> bounded_decide(const PreparedGroup& group, bool pure,
                                         std::string* failure);
  /// Prepare `batch`, in plan order unless `order` is given.
  PreparedBatch prepare_batch(const std::vector<LaunchRequest>& batch,
                              std::vector<std::size_t> order = {});
  /// The framework overhead of `group`, whose members rank `batch` in
  /// `order`.
  common::Duration overhead_of(const std::vector<LaunchRequest>& batch,
                               const std::vector<std::size_t>& order,
                               const PreparedGroup& group) const;
  /// Under the model-based policy, replace each template-covered group of
  /// two or more kernels with one part per kernel (its contiguous run in
  /// plan order, under the template the registry picks for that kernel)
  /// when the parts' chosen charges sum below the whole group's. Pricing is
  /// pure; a declined price keeps the group whole. Every group and part
  /// priced keeps its evaluation. False when a price declined.
  bool price_splits(const std::vector<LaunchRequest>& batch,
                    PreparedBatch& prepared);
  /// prepare_batch(batch) with its splits priced: a batch closing now.
  PreparedBatch prepare_closing(const std::vector<LaunchRequest>& batch);
  /// The chosen estimates' charge, summed over `prepared`'s groups, each
  /// group keeping its evaluation; nullopt when a group has no template or
  /// a prediction declines.
  std::optional<common::Energy> predict_batch(PreparedBatch& prepared);
  /// The close check, memoized on the pending batch in plan order: the
  /// batch prepared to close now, its splits priced, or nullopt to keep it
  /// open. It closes when it charges no more per request than a full batch
  /// of its mix, both priced with whole groups; a declined prediction keeps
  /// it open, and neither it nor a closing batch whose split pricing
  /// declined is memoized.
  std::optional<PreparedBatch> close_check();
  /// Execute the pending batch as `prepared`, counting the close in `why`.
  void close(const PreparedBatch& prepared, const obs::Counter& why);
  void process_group(std::vector<LaunchRequest> requests,
                     const PreparedGroup& group, std::int64_t batch);

  const gpusim::FluidEngine& engine_;
  std::optional<gpusim::RunMemo> memo_;  ///< every GPU run, when memoizing
  GroupExecutor executor_;
  DecisionEngine decision_;
  /// Close-check verdicts (nullopt: stays open) by everything a check
  /// reads, when memoizing.
  std::optional<gpusim::SimCache<std::optional<PreparedBatch>>> close_memo_;
  TemplateRegistry templates_;
  BackendOptions options_;
  BatchSink& sink_;

  std::vector<LaunchRequest> pending_;
  std::size_t threshold_ = 1;
  /// Set once a batch has closed at the threshold; before that none closes
  /// early, so a single-batch run (run_dynamic) keeps its batch.
  bool closed_full_ = false;
  int next_instance_id_ = 0;
  std::int64_t batches_closed_ = 0;

  mutable std::mutex profiles_mutex_;
  std::map<std::string, cpusim::CpuTask> cpu_profiles_;
  /// Bumped by set_cpu_profile, so a memoized verdict never outlives the
  /// profiles it was evaluated with.
  std::int64_t profiles_version_ = 0;

  /// Why batches closed, and the close checks made.
  obs::Counter closes_threshold_;
  obs::Counter closes_early_;
  obs::Counter closes_flush_;
  obs::Counter close_checks_;
  /// Groups run as parts, and the charge the splits saved.
  obs::Counter split_groups_;
  obs::Counter split_saved_joules_;
  gpusim::CacheCounters close_cache_counters_{"backend.close_cache"};

  /// Started only when decision_deadline > 0.
  common::Channel<DecideJob> decide_jobs_;
  std::thread decision_worker_;
};

}  // namespace ewc::consolidate
