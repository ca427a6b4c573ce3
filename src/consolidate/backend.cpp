#include "consolidate/backend.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "common/log.hpp"
#include "consolidate/plan_order.hpp"
#include "fault/injector.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"

namespace ewc::consolidate {

namespace {
CompletionReply::Where where_of(Alternative a) {
  switch (a) {
    case Alternative::kConsolidatedGpu:
      return CompletionReply::Where::kConsolidatedGpu;
    case Alternative::kIndividualGpu:
      return CompletionReply::Where::kIndividualGpu;
    case Alternative::kCpu:
      return CompletionReply::Where::kCpu;
  }
  return CompletionReply::Where::kIndividualGpu;
}

/// Answer `requests` (replies[i] answers requests[i]): each reply channel
/// gets all of its replies, in order, in one channel operation.
void send_replies(const std::vector<LaunchRequest>& requests,
                  std::vector<CompletionReply> replies) {
  std::vector<std::pair<ReplyChannel*, std::vector<CompletionReply>>> by_channel;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ReplyChannel* channel = requests[i].reply.get();
    if (channel == nullptr) continue;
    auto it = std::find_if(by_channel.begin(), by_channel.end(),
                           [&](const auto& c) { return c.first == channel; });
    if (it == by_channel.end()) {
      it = by_channel.insert(by_channel.end(), {channel, {}});
    }
    it->second.push_back(std::move(replies[i]));
  }
  for (auto& [channel, answers] : by_channel) {
    channel->send_all(std::move(answers));
  }
}
}  // namespace

Backend::Backend(const gpusim::FluidEngine& engine,
                 power::GpuPowerModel power_model, TemplateRegistry templates,
                 BackendOptions options)
    : engine_(engine),
      memo_(engine, kMemoCapacity),
      executor_(engine, &memo_, options.cpu_config),
      decision_(engine.device(), std::move(power_model), options.cpu_config,
                options.costs, engine.energy_config()),
      close_memo_(kCloseMemoCapacity),
      templates_(std::move(templates)),
      options_(options),
      context_("backend", std::size_t{4} * 1024 * 1024 * 1024) {
  obs::Registry& registry = obs::Registry::instance();
  closes_threshold_ = registry.counter("backend.closes.threshold");
  closes_early_ = registry.counter("backend.closes.early");
  closes_flush_ = registry.counter("backend.closes.flush");
  close_checks_ = registry.counter("backend.close_checks");
  batch_fill_ = registry.histogram("backend.batch_fill_seconds");
  close_check_seconds_ = registry.histogram("backend.close_check_seconds");
  decision_.enable_prediction_cache(kMemoCapacity);
  if (options_.decision_deadline > common::Duration::zero()) {
    decision_worker_ = std::thread([this] { decision_loop(); });
  }
  worker_ = std::thread([this] { run_loop(); });
}

Backend::~Backend() { shutdown(); }

void Backend::set_cpu_profile(const std::string& kernel_name,
                              cpusim::CpuTask task) {
  std::lock_guard lock(state_mutex_);
  cpu_profiles_[kernel_name] = std::move(task);
  ++profiles_version_;
}

void Backend::flush() {
  auto done = std::make_shared<common::Channel<bool>>();
  channel_.send(FlushRequest{done});
  done->receive();
}

void Backend::shutdown() {
  if (!worker_.joinable()) return;
  channel_.send(ShutdownRequest{});
  channel_.close();
  worker_.join();
  // The batch thread is done, so no new decide jobs can arrive; wait out
  // whatever decide is still in flight (injected stalls are finite).
  decide_jobs_.close();
  if (decision_worker_.joinable()) decision_worker_.join();
}

std::vector<BatchReport> Backend::reports() const {
  std::lock_guard lock(state_mutex_);
  return reports_;
}

std::vector<BatchReport> Backend::take_reports() {
  std::lock_guard lock(state_mutex_);
  return std::exchange(reports_, {});
}

common::Duration Backend::total_time() const {
  std::lock_guard lock(state_mutex_);
  return total_time_;
}

common::Energy Backend::total_energy() const {
  std::lock_guard lock(state_mutex_);
  return total_energy_;
}

void Backend::run_loop() {
  std::vector<LaunchRequest> pending;
  const std::size_t threshold =
      static_cast<std::size_t>(std::max(options_.batch_threshold, 1));
  const std::size_t half = (threshold + 1) / 2;
  // Set once a batch has closed at the threshold. Before that the backend
  // has never waited for a full batch, so it never closes one early: a
  // fresh backend (run_dynamic, the paper runners, a single-batch run)
  // keeps its batches.
  bool closed_full = false;
  // When the first pending launch arrived. Only the fill-time histogram
  // reads it; no close decision does.
  std::chrono::steady_clock::time_point fill_start;
  const auto close = [&](const PreparedBatch& prepared,
                         const obs::Counter& why) {
    batch_fill_->record(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - fill_start)
                            .count());
    execute_batch(pending, prepared, why);
  };
  for (;;) {
    auto msg = channel_.receive();
    if (!msg.has_value()) {
      // Closed and drained without a ShutdownRequest (a crashing producer, a
      // test tearing the channel down). The pending requests will never
      // execute; answer their reply channels instead of leaving the owning
      // frontends blocked forever.
      fail_pending(pending, "backend channel closed before batch executed");
      break;
    }
    if (std::holds_alternative<ShutdownRequest>(*msg)) {
      if (!pending.empty()) close(prepare_batch(pending), closes_flush_);
      break;
    }
    if (auto* flush = std::get_if<FlushRequest>(&*msg)) {
      if (!pending.empty()) close(prepare_batch(pending), closes_flush_);
      flush->done->send(true);
      continue;
    }
    if (pending.empty()) fill_start = std::chrono::steady_clock::now();
    pending.push_back(std::move(std::get<LaunchRequest>(*msg)));
    if (pending.size() >= threshold) {
      close(prepare_batch(pending), closes_threshold_);
      closed_full = true;
    } else if (closed_full && pending.size() >= half) {
      // At least half full: close now if waiting for the rest does not
      // pay. The verdict counts arrivals and reads no clock, so batch
      // composition still depends only on arrival order; the clock only
      // times the check.
      close_checks_.inc();
      const auto checked = std::chrono::steady_clock::now();
      std::optional<PreparedBatch> closing = close_check(pending, threshold);
      close_check_seconds_->record(std::chrono::duration<double>(
                                       std::chrono::steady_clock::now() -
                                       checked)
                                       .count());
      close_cache_counters_.publish(close_memo_.stats());
      if (closing.has_value()) close(*closing, closes_early_);
    }
  }
}

void Backend::fail_pending(std::vector<LaunchRequest>& pending,
                           const std::string& error) {
  std::vector<CompletionReply> replies(pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    replies[i].ok = false;
    replies[i].error = error;
    replies[i].request_id = pending[i].request_id;
    replies[i].owner = pending[i].owner;
    replies[i].session = pending[i].session;
  }
  send_replies(pending, std::move(replies));
  pending.clear();
}

std::vector<std::size_t> Backend::plan_order_of(
    const std::vector<LaunchRequest>& batch) {
  return plan_order(
      batch.size(),
      [&](std::size_t i) -> std::string_view { return batch[i].desc.name; },
      [&](std::size_t i) -> std::string_view { return batch[i].owner; });
}

void Backend::decision_loop() {
  for (;;) {
    auto job = decide_jobs_.receive();
    if (!job.has_value()) break;  // closed and drained: shutting down
    DecideOutcome out;
    try {
      out.decision = ask_engine(job->group, job->pure);
      out.ok = true;
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    // The batch thread may have degraded and walked away already; the
    // shared channel keeps this send safe and the late result unread.
    job->done->send(std::move(out));
  }
}

Decision Backend::ask_engine(const PreparedGroup& group, bool pure) const {
  if (pure) {
    return decision_.evaluate(group.plan, group.profiles, group.overhead,
                              options_.policy);
  }
  if (group.evaluated.has_value()) {
    return decision_.decide(*group.evaluated, group.plan.instances.size());
  }
  return decision_.decide(group.plan, group.profiles, group.overhead,
                          options_.policy);
}

std::optional<Decision> Backend::bounded_decide(const PreparedGroup& group,
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
  if (!out->ok) {
    *failure = out->error;
    return std::nullopt;
  }
  return std::move(out->decision);
}

Backend::PreparedBatch Backend::prepare_batch(
    const std::vector<LaunchRequest>& batch) {
  return prepare_batch(batch, plan_order_of(batch));
}

Backend::PreparedBatch Backend::prepare_batch(
    const std::vector<LaunchRequest>& batch, std::vector<std::size_t> order) {
  // Partition into candidate groups by template coverage (paper Section
  // VII); requests no template covers run normally, each on its own.
  // Ordering positions, not requests, leaves the batch as it arrived for a
  // check that keeps it open.
  std::vector<std::string_view> names;
  names.reserve(batch.size());
  for (const std::size_t i : order) names.push_back(batch[i].desc.name);

  PreparedBatch prepared;
  std::lock_guard lock(state_mutex_);
  prepared.first_id = next_instance_id_;
  int next_id = prepared.first_id;
  for (const CandidateGroup& g : templates_.partition(names)) {
    PreparedGroup& group = prepared.groups.emplace_back();
    group.tmpl = g.tmpl;
    group.plan.reuse_constant_data =
        options_.optimizations.constant_data_reuse;
    std::vector<std::size_t> staged;
    std::vector<int> messages;
    for (const std::size_t member : g.members) {
      const LaunchRequest& req = batch[order[member]];
      group.members.push_back(member);
      gpusim::KernelInstance inst;
      inst.desc = req.desc;
      inst.owner = req.owner;
      inst.instance_id = next_id++;
      group.plan.instances.push_back(std::move(inst));
      staged.push_back(req.staged_bytes);
      messages.push_back(req.api_messages);
      auto it = cpu_profiles_.find(req.desc.name);
      if (it != cpu_profiles_.end()) {
        cpusim::CpuTask t = it->second;
        t.instance_id = group.plan.instances.back().instance_id;
        group.profiles.emplace_back(std::move(t));
      } else {
        group.profiles.emplace_back(std::nullopt);
      }
    }
    group.overhead = decision_.overhead(group.plan.instances, staged,
                                        messages, options_.optimizations);
  }
  prepared.order = std::move(order);
  return prepared;
}

std::optional<common::Energy> Backend::predict_batch(PreparedBatch& prepared) {
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

std::vector<LaunchRequest> Backend::full_batch_like(
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
  // Shares of `size` by largest remainder: each kernel gets the floor of
  // its proportional share, and what is left goes one launch each to the
  // largest remainders, the earlier kernel first on a tie.
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

  // Each launch's copies next to each other, so the full batch is already
  // in plan order; the earlier launches take what does not divide evenly.
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

std::optional<bool> Backend::costs_no_more_than_full(
    PreparedBatch& prepared, const std::vector<LaunchRequest>& pending,
    std::size_t threshold) {
  const std::optional<common::Energy> now = predict_batch(prepared);
  if (!now.has_value()) return std::nullopt;
  PreparedBatch full =
      prepare_batch(full_batch_like(pending, prepared.order, threshold));
  const std::optional<common::Energy> full_charge = predict_batch(full);
  if (!full_charge.has_value()) return std::nullopt;
  return *now / static_cast<double>(pending.size()) <=
         *full_charge / static_cast<double>(threshold);
}

std::optional<Backend::PreparedBatch> Backend::close_check(
    const std::vector<LaunchRequest>& pending, std::size_t threshold) {
  // The key is everything the check reads: each launch's kernel, staged
  // bytes and API messages in plan order, the threshold and the CPU
  // profiles' version. Owners and arrival order are not in it. Plan order
  // puts a kernel's launches side by side, so each run of equal launches is
  // encoded once, with its length: distinct batches keep distinct keys, at
  // a fraction of the encoding.
  std::vector<std::size_t> order = plan_order_of(pending);
  gpusim::PlanSignature key;
  {
    std::lock_guard lock(state_mutex_);
    gpusim::append_key(key.key, profiles_version_);
  }
  gpusim::append_key(key.key, static_cast<std::int64_t>(threshold));
  const auto same_launch = [&](std::size_t a, std::size_t b) {
    return pending[a].staged_bytes == pending[b].staged_bytes &&
           pending[a].api_messages == pending[b].api_messages &&
           gpusim::same_key(pending[a].desc, pending[b].desc);
  };
  for (std::size_t r = 0; r < order.size();) {
    const std::size_t first = order[r];
    std::size_t end = r + 1;
    while (end < order.size() && same_launch(first, order[end])) ++end;
    gpusim::append_key(key.key, static_cast<std::int64_t>(end - r));
    gpusim::append_key(key.key, pending[first].desc);
    gpusim::append_key(key.key,
                       static_cast<std::int64_t>(pending[first].staged_bytes));
    gpusim::append_key(key.key,
                       static_cast<std::int64_t>(pending[first].api_messages));
    r = end;
  }

  if (std::optional<CloseVerdict> hit = close_memo_.get(key)) {
    if (!hit->close) return std::nullopt;
    // The memoized batch is this one up to owners and instance ids: give
    // it this batch's positions and owners and the next free ids.
    PreparedBatch prepared = std::move(hit->prepared);
    prepared.order = std::move(order);
    std::lock_guard lock(state_mutex_);
    const int shift = next_instance_id_ - prepared.first_id;
    prepared.first_id = next_instance_id_;
    for (PreparedGroup& group : prepared.groups) {
      for (std::size_t j = 0; j < group.members.size(); ++j) {
        gpusim::KernelInstance& inst = group.plan.instances[j];
        inst.instance_id += shift;
        inst.owner = pending[prepared.order[group.members[j]]].owner;
        if (group.profiles[j].has_value()) {
          group.profiles[j]->instance_id += shift;
        }
      }
    }
    return prepared;
  }

  PreparedBatch prepared = prepare_batch(pending, std::move(order));
  const std::optional<bool> close =
      costs_no_more_than_full(prepared, pending, threshold);
  // A declined check (no template, a throw, a deadline overrun) says
  // nothing about the next one: it is not memoized.
  if (!close.has_value()) return std::nullopt;
  CloseVerdict verdict;
  verdict.close = *close;
  if (*close) verdict.prepared = prepared;
  close_memo_.put(key, std::move(verdict));
  if (!*close) return std::nullopt;
  return prepared;
}

void Backend::execute_batch(std::vector<LaunchRequest>& batch,
                            const PreparedBatch& prepared,
                            const obs::Counter& why) {
  why.inc();
  if (auto a = fault::hit("backend.batch");
      a.kind == fault::ActionKind::kFail) {
    fail_pending(batch, "injected backend batch failure");
    return;
  }
  static obs::Histogram* batch_hist =
      obs::Registry::instance().histogram("backend.batch_size");
  batch_hist->record(static_cast<double>(batch.size()));
  obs::ScopedSpan span("backend.batch");
  if (span.active()) {
    span.set_args("\"requests\":" + std::to_string(batch.size()));
  }
  {
    std::lock_guard lock(state_mutex_);
    next_instance_id_ += static_cast<int>(batch.size());
  }

  for (const PreparedGroup& group : prepared.groups) {
    std::vector<LaunchRequest> requests;
    requests.reserve(group.members.size());
    for (const std::size_t rank : group.members) {
      requests.push_back(std::move(batch[prepared.order[rank]]));
    }
    process_group(requests, group);
  }
  batch.clear();
}

void Backend::process_group(
    std::vector<LaunchRequest>& batch, const PreparedGroup& group) {
  using common::Duration;

  obs::ScopedSpan span("backend.group");
  // Wall-clock start of this group's processing: every request in the batch
  // gets a per-request "backend.request" slice over [here, reply-send) so
  // trace-merge can anchor cross-process flow arrows on a backend span.
  const double group_start_us =
      obs::Tracer::enabled() ? obs::Tracer::now_us() : 0.0;

  BatchReport report;
  report.num_instances = static_cast<int>(batch.size());

  // Anchor this group's simulated-time events on the daemon's accumulated
  // simulated timeline: groups execute back-to-back in simulated time, so
  // the engine's own t=0 maps to everything that ran before plus this
  // group's framework overhead.
  double sim_anchor = 0.0;
  if (obs::Tracer::enabled()) {
    std::lock_guard lock(state_mutex_);
    sim_anchor = total_time_.seconds();
  }

  const gpusim::LaunchPlan& plan = group.plan;
  const ConsolidationTemplate* tmpl = group.tmpl;
  std::vector<RequestContext> contexts;
  contexts.reserve(batch.size());
  for (const auto& req : batch) {
    contexts.push_back({req.request_id, req.trace_id, req.parent_span_id});
    report.kernel_names.push_back(req.desc.name);
  }

  const Duration overhead = group.overhead;
  report.overhead = overhead;

  // Template coverage gates consolidation (paper Section IV).
  report.template_found = tmpl != nullptr;
  if (tmpl != nullptr) report.template_name = tmpl->name;

  Alternative chosen = Alternative::kIndividualGpu;
  if (tmpl != nullptr) {
    // The predictor is a component that can misbehave, not an oracle: if it
    // throws or overruns its deadline (a bounded wait on the decision
    // thread — a hung decide cannot wedge the batch), degrade to the
    // paper's serial (unconsolidated) plan instead of failing the group.
    std::string degraded_reason;
    std::optional<Decision> d =
        bounded_decide(group, /*pure=*/false, &degraded_reason);
    if (d.has_value()) {
      chosen = d->chosen;
      report.decision = std::move(d);
    } else {
      report.degraded = true;
      report.degraded_reason = std::move(degraded_reason);
    }
    if (report.degraded) {
      chosen = Alternative::kIndividualGpu;
      static obs::Counter degraded_counter =
          obs::Registry::instance().counter("server.degraded_decisions");
      degraded_counter.inc();
      if (obs::Tracer::enabled()) {
        obs::instant("backend.degraded",
                     batch.empty() ? 0 : batch.front().request_id,
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

  // ---- execute the chosen alternative ----
  // Only a template-covered group can be consolidated.
  const GroupExecution exec = executor_.run(
      chosen, plan, group.profiles,
      tmpl != nullptr ? tmpl->max_total_blocks
                      : GroupExecutor::kUnlimitedBlocks,
      overhead, sim_anchor, contexts);
  report.consolidated_launches = exec.launches;
  report.execution_time = exec.time;
  report.total_time = overhead + exec.time;
  // The node sits near idle through the overhead window.
  report.energy =
      exec.energy + engine_.energy_config().system_idle_with_gpu * overhead;

  if (span.active()) {
    std::string args = "\"instances\":" + std::to_string(batch.size()) +
                       ",\"chosen\":\"" + alternative_name(chosen) + "\"";
    if (tmpl != nullptr) {
      args += ",\"template\":\"" + obs::json_escape(tmpl->name) + "\"";
    }
    if (report.degraded) args += ",\"degraded\":true";
    span.set_args(std::move(args));
  }

  {
    std::lock_guard lock(state_mutex_);
    total_time_ += report.total_time;
    total_energy_ += report.energy;
    reports_.push_back(report);
    // Published as gauges so remote harnesses (loadgen) can read the
    // simulated energy/time totals over the kStats wire and compute
    // joules/request without an in-process Backend handle.
    static obs::Counter energy_counter =
        obs::Registry::instance().counter("backend.total_energy_joules");
    static obs::Counter time_counter =
        obs::Registry::instance().counter("backend.total_time_seconds");
    energy_counter.set(total_energy_.joules());
    time_counter.set(total_time_.seconds());
  }
  static const gpusim::CacheCounters run_cache_counters("backend.run_cache");
  static const gpusim::CacheCounters predict_cache_counters(
      "backend.predict_cache");
  run_cache_counters.publish(memo_.stats());
  predict_cache_counters.publish(decision_.prediction_cache_stats());

  const bool tracing = obs::Tracer::enabled();
  std::vector<CompletionReply> replies(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    replies[i].ok = true;
    replies[i].where = where_of(chosen);
    replies[i].finish_time = exec.finish_times[i];
    replies[i].request_id = batch[i].request_id;
    replies[i].owner = batch[i].owner;
    replies[i].session = batch[i].session;
    if (tracing) {
      obs::TraceScope trace_scope(batch[i].trace_id,
                                  batch[i].parent_span_id);
      obs::instant("backend.reply", batch[i].request_id,
                   "\"where\":" +
                       std::to_string(static_cast<int>(replies[i].where)) +
                       ",\"ok\":" + (replies[i].ok ? "true" : "false"));
      // Per-request backend residency slice [group start, reply send);
      // carries the distributed-trace context so the merged fleet trace
      // draws a flow arrow into the backend stage.
      obs::SpanEvent ev;
      ev.name = "backend.request";
      ev.request_id = batch[i].request_id;
      ev.trace_id = batch[i].trace_id;
      ev.parent_span_id = batch[i].parent_span_id;
      ev.ts_us = group_start_us;
      ev.dur_us = obs::Tracer::now_us() - group_start_us;
      obs::Tracer::instance().record(std::move(ev));
    }
  }
  send_replies(batch, std::move(replies));
  batch.clear();
}

}  // namespace ewc::consolidate
