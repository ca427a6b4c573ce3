#include "consolidate/batch_former.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/log.hpp"
#include "consolidate/plan_order.hpp"
#include "fault/injector.hpp"
#include "obs/tracer.hpp"

namespace ewc::consolidate {

namespace {

std::vector<std::size_t> plan_order_of(
    const std::vector<LaunchRequest>& batch) {
  return plan_order(
      batch.size(),
      [&](std::size_t i) -> std::string_view { return batch[i].desc.name; },
      [&](std::size_t i) -> std::string_view { return batch[i].owner; });
}

/// A `size`-launch batch of `pending`'s kernel mix, in plan order: each
/// kernel's share by largest remainder (the earlier kernel first on a tie),
/// filled with copies of its pending launches (no reply channels), the
/// earlier ones taking any extra copy.
std::vector<LaunchRequest> full_batch_like(
    const std::vector<LaunchRequest>& pending,
    const std::vector<std::size_t>& order, std::size_t size) {
  // Each kernel's launches in plan order; plan order keeps a kernel's
  // launches together, kernels by name.
  std::vector<std::vector<std::size_t>> kernels;
  for (const std::size_t i : order) {
    if (kernels.empty() ||
        pending[kernels.back().front()].desc.name != pending[i].desc.name) {
      kernels.emplace_back();
    }
    kernels.back().push_back(i);
  }
  // Shares by largest remainder: each kernel's floor, then one launch each
  // to the largest remainders, the earlier kernel first on a tie.
  const std::size_t n = pending.size();
  std::vector<std::size_t> shares;
  std::size_t left = size;
  for (const auto& k : kernels) {
    shares.push_back(k.size() * size / n);
    left -= shares.back();
  }
  std::vector<std::size_t> by_remainder(kernels.size());
  std::iota(by_remainder.begin(), by_remainder.end(), std::size_t{0});
  std::stable_sort(by_remainder.begin(), by_remainder.end(),
                   [&](std::size_t a, std::size_t b) {
                     return kernels[a].size() * size % n >
                            kernels[b].size() * size % n;
                   });
  for (std::size_t j = 0; j < left; ++j) ++shares[by_remainder[j]];

  // Each launch's copies side by side, so the batch is in plan order.
  std::vector<LaunchRequest> full;
  full.reserve(size);
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    const std::size_t m = kernels[k].size();
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t copies = shares[k] / m + (j < shares[k] % m ? 1 : 0);
      for (std::size_t c = 0; c < copies; ++c) {
        full.emplace_back(pending[kernels[k][j]]).reply.reset();
      }
    }
  }
  return full;
}

}  // namespace

ServedMix served_mix(std::span<const workloads::InstanceSpec> mix) {
  ServedMix served{TemplateRegistry::paper_defaults(), {}};
  ConsolidationTemplate t;
  t.name = "experiment_mix";
  for (const auto& spec : mix) {
    t.kernels.insert(spec.gpu.name);
    served.cpu_profiles[spec.gpu.name] = spec.cpu;
  }
  served.templates.add(std::move(t));
  return served;
}

BatchFormer::BatchFormer(const gpusim::FluidEngine& engine,
                         power::GpuPowerModel power_model, ServedMix mix,
                         BackendOptions options, BatchSink& sink, bool memoize)
    : engine_(engine),
      memo_(memoize ? std::optional<gpusim::RunMemo>(std::in_place, engine,
                                                     kMemoCapacity)
                    : std::nullopt),
      executor_(engine, memo_ ? &*memo_ : nullptr, options.cpu_config),
      decision_(engine.device(), std::move(power_model), options.cpu_config,
                options.costs, engine.energy_config()),
      templates_(std::move(mix.templates)),
      options_(options),
      sink_(sink),
      threshold_(
          static_cast<std::size_t>(std::max(options.batch_threshold, 1))),
      cpu_profiles_(std::move(mix.cpu_profiles)) {
  if (memoize) {
    close_memo_.emplace(kCloseMemoCapacity);
    decision_.enable_prediction_cache(kMemoCapacity);
  }
  obs::Registry& registry = obs::Registry::instance();
  closes_threshold_ = registry.counter("backend.closes.threshold");
  closes_early_ = registry.counter("backend.closes.early");
  closes_flush_ = registry.counter("backend.closes.flush");
  close_checks_ = registry.counter("backend.close_checks");
  split_groups_ = registry.counter("backend.split_groups");
  split_saved_joules_ = registry.counter("decision.split_saved_joules");
  if (options_.decision_deadline > common::Duration::zero()) {
    decision_worker_ = std::thread([this] { decision_loop(); });
  }
}

BatchFormer::~BatchFormer() { stop(); }

void BatchFormer::stop() {
  decide_jobs_.close();
  if (decision_worker_.joinable()) decision_worker_.join();
}

void BatchFormer::set_cpu_profile(const std::string& kernel_name,
                                  cpusim::CpuTask task) {
  std::lock_guard lock(profiles_mutex_);
  cpu_profiles_[kernel_name] = std::move(task);
  ++profiles_version_;
}

void BatchFormer::add(LaunchRequest launch) {
  pending_.push_back(std::move(launch));
  if (pending_.size() >= threshold_) {
    close(prepare_closing(pending_), closes_threshold_);
    closed_full_ = true;
  } else if (closed_full_ && pending_.size() >= (threshold_ + 1) / 2) {
    // At least half full: close now if waiting for the rest does not pay.
    close_checks_.inc();
    sink_.checking();
    std::optional<PreparedBatch> closing = close_check();
    sink_.checked();
    if (close_memo_) close_cache_counters_.publish(close_memo_->stats());
    if (closing.has_value()) close(*closing, closes_early_);
  }
}

void BatchFormer::flush() {
  if (!pending_.empty()) close(prepare_closing(pending_), closes_flush_);
}

void BatchFormer::abandon(const std::string& error) {
  if (!pending_.empty()) sink_.failed(std::exchange(pending_, {}), error);
}

void BatchFormer::decision_loop() {
  for (;;) {
    auto job = decide_jobs_.receive();
    if (!job.has_value()) break;  // closed and drained: shutting down
    DecideOutcome out;
    try {
      out.decision = ask_engine(job->group, job->pure);
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    // The feeding thread may have walked away; the shared channel keeps
    // this send safe and the late result unread.
    job->done->send(std::move(out));
  }
}

Decision BatchFormer::ask_engine(const PreparedGroup& group, bool pure) const {
  if (pure) {
    // Scripted predictor misbehavior while pricing, apart from the
    // decision.decide draws: a fail declines the price, a stall burns wall
    // time against the decision deadline.
    if (auto a = fault::hit("backend.price")) {
      if (a.kind == fault::ActionKind::kFail) {
        throw fault::InjectedFault("injected pricing failure");
      }
      if (a.kind == fault::ActionKind::kStall ||
          a.kind == fault::ActionKind::kDelay) {
        fault::sleep_for(a.duration);
      }
    }
    return decision_.evaluate(group.plan, group.profiles, group.overhead,
                              options_.policy);
  }
  if (group.evaluated.has_value()) {
    return decision_.decide(*group.evaluated, group.plan.instances.size());
  }
  return decision_.decide(group.plan, group.profiles, group.overhead,
                          options_.policy);
}

std::optional<Decision> BatchFormer::bounded_decide(const PreparedGroup& group,
                                                    bool pure,
                                                    std::string* failure) {
  if (options_.decision_deadline <= common::Duration::zero()) {
    try {
      return ask_engine(group, pure);
    } catch (const std::exception& e) {
      *failure = e.what();
      return std::nullopt;
    }
  }
  DecideJob job;
  job.group = group;
  job.pure = pure;
  job.done = std::make_shared<common::Channel<DecideOutcome>>();
  auto done = job.done;
  if (!decide_jobs_.send(std::move(job))) {
    *failure = "decision worker unavailable";
    return std::nullopt;
  }
  auto out = done->receive_for(options_.decision_deadline);
  if (!out.has_value()) {
    *failure = "decision deadline exceeded (" +
               std::to_string(options_.decision_deadline.seconds()) + "s)";
    return std::nullopt;
  }
  if (!out->decision.has_value()) *failure = out->error;
  return std::move(out->decision);
}

BatchFormer::PreparedBatch BatchFormer::prepare_batch(
    const std::vector<LaunchRequest>& batch, std::vector<std::size_t> order) {
  if (order.empty()) order = plan_order_of(batch);
  // Partition by template coverage (paper Section VII); uncovered requests
  // run normally, each on its own. The batch itself keeps arrival order.
  std::vector<std::string_view> names;
  names.reserve(batch.size());
  for (const std::size_t i : order) names.push_back(batch[i].desc.name);

  PreparedBatch prepared;
  prepared.first_id = next_instance_id_;
  int next_id = prepared.first_id;
  std::lock_guard lock(profiles_mutex_);
  for (const CandidateGroup& g : templates_.partition(names)) {
    PreparedGroup& group = prepared.groups.emplace_back();
    group.tmpl = g.tmpl;
    group.plan.reuse_constant_data =
        options_.optimizations.constant_data_reuse;
    for (const std::size_t member : g.members) {
      const LaunchRequest& req = batch[order[member]];
      group.members.push_back(member);
      gpusim::KernelInstance inst;
      inst.desc = req.desc;
      inst.owner = req.owner;
      inst.instance_id = next_id++;
      group.plan.instances.push_back(std::move(inst));
      auto it = cpu_profiles_.find(req.desc.name);
      if (it != cpu_profiles_.end()) {
        cpusim::CpuTask t = it->second;
        t.instance_id = group.plan.instances.back().instance_id;
        group.profiles.emplace_back(std::move(t));
      } else {
        group.profiles.emplace_back(std::nullopt);
      }
    }
    group.overhead = overhead_of(batch, order, group);
  }
  prepared.order = std::move(order);
  return prepared;
}

common::Duration BatchFormer::overhead_of(
    const std::vector<LaunchRequest>& batch,
    const std::vector<std::size_t>& order, const PreparedGroup& group) const {
  std::vector<std::size_t> staged;
  std::vector<int> messages;
  for (const std::size_t member : group.members) {
    const LaunchRequest& req = batch[order[member]];
    staged.push_back(req.staged_bytes);
    messages.push_back(req.api_messages);
  }
  return decision_.overhead(group.plan.instances, staged, messages,
                            options_.optimizations);
}

bool BatchFormer::price_splits(const std::vector<LaunchRequest>& batch,
                               PreparedBatch& prepared) {
  if (options_.policy != DecisionPolicy::kModelBased) return true;
  bool all_priced = true;
  std::vector<PreparedGroup> groups;
  groups.reserve(prepared.groups.size());
  for (PreparedGroup& group : prepared.groups) {
    // One part per kernel: plan order keeps each kernel's launches together.
    std::vector<PreparedGroup> parts;
    const auto& instances = group.plan.instances;
    for (std::size_t j = 0; group.tmpl != nullptr && j < instances.size();
         ++j) {
      if (j == 0 || instances[j].desc.name != instances[j - 1].desc.name) {
        // The part is a candidate group of its own kernel, so it runs (and
        // reports) under the template the registry picks for that kernel.
        PreparedGroup& part = parts.emplace_back();
        part.tmpl = templates_.find({instances[j].desc.name});
        part.plan.reuse_constant_data = group.plan.reuse_constant_data;
      }
      parts.back().members.push_back(group.members[j]);
      parts.back().plan.instances.push_back(instances[j]);
      parts.back().profiles.push_back(group.profiles[j]);
    }
    if (parts.size() < 2) {
      groups.push_back(std::move(group));
      continue;
    }
    // Price the whole and each part on the one ledger; any declined price
    // keeps the group whole. A group whose own price declined degrades at
    // once: its decide would ask the same predictor again.
    std::string failure;
    if (!group.evaluated.has_value()) {
      group.evaluated = bounded_decide(group, /*pure=*/true, &failure);
      if (!group.evaluated.has_value()) group.declined = std::move(failure);
    }
    bool priced = group.evaluated.has_value();
    common::Energy parts_charge = common::Energy::zero();
    for (PreparedGroup& part : parts) {
      if (!priced) break;
      part.overhead = overhead_of(batch, prepared.order, part);
      part.evaluated = bounded_decide(part, /*pure=*/true, &failure);
      priced = part.evaluated.has_value();
      if (priced) parts_charge += part.evaluated->chosen_estimate().charge;
    }
    all_priced = all_priced && priced;
    if (!priced ||
        parts_charge >= group.evaluated->chosen_estimate().charge) {
      groups.push_back(std::move(group));
      continue;
    }
    parts.front().split_saved =
        group.evaluated->chosen_estimate().charge - parts_charge;
    for (PreparedGroup& part : parts) groups.push_back(std::move(part));
  }
  prepared.groups = std::move(groups);
  return all_priced;
}

BatchFormer::PreparedBatch BatchFormer::prepare_closing(
    const std::vector<LaunchRequest>& batch) {
  PreparedBatch prepared = prepare_batch(batch);
  price_splits(batch, prepared);
  return prepared;
}

std::optional<common::Energy> BatchFormer::predict_batch(
    PreparedBatch& prepared) {
  common::Energy joules = common::Energy::zero();
  for (PreparedGroup& group : prepared.groups) {
    if (group.tmpl == nullptr) return std::nullopt;
    std::string failure;
    std::optional<Decision> d = bounded_decide(group, /*pure=*/true, &failure);
    if (!d.has_value()) return std::nullopt;
    joules += d->chosen_estimate().charge;
    group.evaluated = std::move(d);
  }
  return joules;
}

std::optional<BatchFormer::PreparedBatch> BatchFormer::close_check() {
  // The key is everything the check reads: the CPU profiles' version, the
  // threshold, and each launch's kernel, staged bytes and API messages in
  // plan order (no owners), each run of equal launches encoded once with
  // its length.
  std::vector<std::size_t> order = plan_order_of(pending_);
  gpusim::PlanSignature key;
  if (close_memo_) {
    {
      std::lock_guard lock(profiles_mutex_);
      gpusim::append_key(key.key, profiles_version_);
    }
    gpusim::append_key(key.key, static_cast<std::int64_t>(threshold_));
    const auto same_launch = [&](std::size_t a, std::size_t b) {
      return pending_[a].staged_bytes == pending_[b].staged_bytes &&
             pending_[a].api_messages == pending_[b].api_messages &&
             gpusim::same_key(pending_[a].desc, pending_[b].desc);
    };
    for (std::size_t r = 0; r < order.size();) {
      const LaunchRequest& first = pending_[order[r]];
      std::size_t end = r + 1;
      while (end < order.size() && same_launch(order[r], order[end])) ++end;
      gpusim::append_key(key.key, static_cast<std::int64_t>(end - r));
      gpusim::append_key(key.key, first.desc);
      gpusim::append_key(key.key,
                         static_cast<std::int64_t>(first.staged_bytes));
      gpusim::append_key(key.key,
                         static_cast<std::int64_t>(first.api_messages));
      r = end;
    }

    if (auto hit = close_memo_->get(key)) {
      if (!hit->has_value()) return std::nullopt;
      // The memoized batch is this one up to owners and instance ids: give
      // it this batch's positions and owners and the next free ids.
      PreparedBatch prepared = std::move(**hit);
      prepared.order = std::move(order);
      const int shift = next_instance_id_ - prepared.first_id;
      prepared.first_id = next_instance_id_;
      for (PreparedGroup& group : prepared.groups) {
        for (std::size_t j = 0; j < group.members.size(); ++j) {
          gpusim::KernelInstance& inst = group.plan.instances[j];
          inst.instance_id += shift;
          inst.owner = pending_[prepared.order[group.members[j]]].owner;
          if (group.profiles[j].has_value()) {
            group.profiles[j]->instance_id += shift;
          }
        }
      }
      return prepared;
    }
  }

  PreparedBatch prepared = prepare_batch(pending_, std::move(order));
  const std::optional<common::Energy> now = predict_batch(prepared);
  std::optional<common::Energy> full_charge;
  if (now.has_value()) {
    PreparedBatch full = prepare_batch(
        full_batch_like(pending_, prepared.order, threshold_));
    full_charge = predict_batch(full);
  }
  // A declined check (no template, a throw, a deadline overrun) says
  // nothing about the next one: it is not memoized. Nor is a closing batch
  // whose split pricing declined, which a fresh check might split.
  if (!full_charge.has_value()) return std::nullopt;
  std::optional<PreparedBatch> verdict;
  bool memoize = close_memo_.has_value();
  if (*now / static_cast<double>(pending_.size()) <=
      *full_charge / static_cast<double>(threshold_)) {
    memoize = price_splits(pending_, prepared) && memoize;
    verdict = std::move(prepared);
  }
  if (memoize) close_memo_->put(key, verdict);
  return verdict;
}

void BatchFormer::close(const PreparedBatch& prepared,
                        const obs::Counter& why) {
  sink_.closing(pending_.size());
  why.inc();
  if (auto a = fault::hit("backend.batch");
      a.kind == fault::ActionKind::kFail) {
    abandon("injected backend batch failure");
    return;
  }
  static obs::Histogram* batch_hist =
      obs::Registry::instance().histogram("backend.batch_size");
  batch_hist->record(static_cast<double>(pending_.size()));
  obs::ScopedSpan span("backend.batch");
  if (span.active()) {
    span.set_args("\"requests\":" + std::to_string(pending_.size()));
  }
  next_instance_id_ += static_cast<int>(pending_.size());
  const std::int64_t seq = batches_closed_++;

  std::vector<LaunchRequest> batch = std::exchange(pending_, {});
  for (const PreparedGroup& group : prepared.groups) {
    if (group.split_saved.has_value()) {
      split_groups_.inc();
      split_saved_joules_.add(group.split_saved->joules());
    }
    std::vector<LaunchRequest> requests;
    requests.reserve(group.members.size());
    for (const std::size_t rank : group.members) {
      requests.push_back(std::move(batch[prepared.order[rank]]));
    }
    process_group(std::move(requests), group, seq);
  }
}

void BatchFormer::process_group(std::vector<LaunchRequest> requests,
                                const PreparedGroup& group,
                                std::int64_t batch) {
  obs::ScopedSpan span("backend.group");
  // The engine's t=0 maps to where the group starts on the sink's timeline.
  const double sim_anchor = sink_.group_start();

  BatchReport report;
  report.batch = batch;
  report.num_instances = static_cast<int>(requests.size());
  std::vector<RequestContext> contexts;
  contexts.reserve(requests.size());
  for (const auto& req : requests) {
    contexts.push_back({req.request_id, req.trace_id, req.parent_span_id});
    report.kernel_names.push_back(req.desc.name);
  }
  const ConsolidationTemplate* tmpl = group.tmpl;
  report.overhead = group.overhead;
  report.template_found = tmpl != nullptr;
  if (tmpl != nullptr) report.template_name = tmpl->name;

  Alternative chosen = Alternative::kIndividualGpu;
  if (tmpl != nullptr) {
    // A predictor that throws or overruns its deadline degrades the group
    // to the paper's serial plan instead of failing it.
    std::string degraded_reason = group.declined.value_or("");
    std::optional<Decision> d;
    if (!group.declined.has_value()) {
      d = bounded_decide(group, /*pure=*/false, &degraded_reason);
    }
    if (d.has_value()) {
      chosen = d->chosen;
      report.decision = std::move(d);
    } else {
      report.degraded = true;
      report.degraded_reason = std::move(degraded_reason);
      static obs::Counter degraded_counter =
          obs::Registry::instance().counter("server.degraded_decisions");
      degraded_counter.inc();
      if (obs::Tracer::enabled()) {
        obs::instant("backend.degraded",
                     requests.empty() ? 0 : requests.front().request_id,
                     "\"reason\":\"" + obs::json_escape(report.degraded_reason) +
                         "\"");
      }
      common::log_info("backend: degraded to serial execution: ",
                       report.degraded_reason);
    }
  } else {
    common::log_info("backend: no template covers batch; running individually");
  }
  report.executed = chosen;

  // Only a template-covered group can be consolidated.
  GroupExecution exec = executor_.run(
      chosen, group.plan, group.profiles,
      tmpl != nullptr ? tmpl->max_total_blocks
                      : GroupExecutor::kUnlimitedBlocks,
      group.overhead, sim_anchor, contexts);
  report.consolidated_launches = exec.launches;
  report.execution_time = exec.time;
  report.total_time = group.overhead + exec.time;
  // The node sits near idle through the overhead window.
  report.energy = exec.energy +
                  engine_.energy_config().system_idle_with_gpu * group.overhead;

  if (span.active()) {
    std::string args = "\"instances\":" + std::to_string(requests.size()) +
                       ",\"chosen\":\"" + alternative_name(chosen) + "\"";
    if (tmpl != nullptr) {
      args += ",\"template\":\"" + obs::json_escape(tmpl->name) + "\"";
    }
    if (report.degraded) args += ",\"degraded\":true";
    span.set_args(std::move(args));
  }
  if (memo_) {
    static const gpusim::CacheCounters run_cache_counters("backend.run_cache");
    static const gpusim::CacheCounters predict_cache_counters(
        "backend.predict_cache");
    run_cache_counters.publish(memo_->stats());
    predict_cache_counters.publish(decision_.prediction_cache_stats());
  }
  sink_.executed(std::move(report), std::move(requests),
                 std::move(exec.finish_times));
}

}  // namespace ewc::consolidate
