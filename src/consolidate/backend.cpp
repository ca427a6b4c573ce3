#include "consolidate/backend.hpp"

#include <algorithm>
#include <chrono>

#include "common/log.hpp"
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
                options.costs),
      templates_(std::move(templates)),
      options_(options),
      context_("backend", std::size_t{4} * 1024 * 1024 * 1024) {
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
      if (!pending.empty()) process_batch(pending);
      break;
    }
    if (auto* flush = std::get_if<FlushRequest>(&*msg)) {
      if (!pending.empty()) process_batch(pending);
      flush->done->send(true);
      continue;
    }
    pending.push_back(std::move(std::get<LaunchRequest>(*msg)));
    if (static_cast<int>(pending.size()) >= options_.batch_threshold) {
      process_batch(pending);
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

void Backend::decision_loop() {
  for (;;) {
    auto job = decide_jobs_.receive();
    if (!job.has_value()) break;  // closed and drained: shutting down
    DecideOutcome out;
    try {
      out.decision =
          decision_.decide(job->plan, job->profiles, job->overhead,
                           job->policy);
      out.ok = true;
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    // The batch thread may have degraded and walked away already; the
    // shared channel keeps this send safe and the late result unread.
    job->done->send(std::move(out));
  }
}

std::optional<Decision> Backend::bounded_decide(
    const gpusim::LaunchPlan& plan,
    const std::vector<std::optional<cpusim::CpuTask>>& profiles,
    common::Duration overhead, std::string* degraded_reason) {
  if (options_.decision_deadline <= common::Duration::zero()) {
    try {
      return decision_.decide(plan, profiles, overhead, options_.policy);
    } catch (const std::exception& e) {
      *degraded_reason = e.what();
      return std::nullopt;
    }
  }
  DecideJob job;
  job.plan = plan;
  job.profiles = profiles;
  job.overhead = overhead;
  job.policy = options_.policy;
  job.done = std::make_shared<common::Channel<DecideOutcome>>();
  auto done = job.done;
  if (!decide_jobs_.send(std::move(job))) {
    *degraded_reason = "decision worker unavailable";
    return std::nullopt;
  }
  auto out = done->receive_for(options_.decision_deadline);
  if (!out.has_value()) {
    *degraded_reason =
        "decision deadline exceeded (" +
        std::to_string(options_.decision_deadline.seconds()) + "s)";
    return std::nullopt;
  }
  if (!out->ok) {
    *degraded_reason = out->error;
    return std::nullopt;
  }
  return std::move(out->decision);
}

void Backend::process_batch(std::vector<LaunchRequest>& batch) {
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

  // Frontends race to the channel; order the batch by owner so results are
  // deterministic regardless of host thread scheduling.
  std::sort(batch.begin(), batch.end(),
            [](const LaunchRequest& a, const LaunchRequest& b) {
              return a.owner < b.owner;
            });

  // Partition into candidate groups by template coverage (paper Section
  // VII); requests no template covers run normally, each on its own.
  std::vector<std::string_view> names;
  names.reserve(batch.size());
  for (const auto& req : batch) names.push_back(req.desc.name);
  for (const CandidateGroup& g : templates_.partition(names)) {
    std::vector<LaunchRequest> requests;
    requests.reserve(g.members.size());
    for (const std::size_t i : g.members) {
      requests.push_back(std::move(batch[i]));
    }
    process_group(requests, g.tmpl);
  }
  batch.clear();
}

void Backend::process_group(std::vector<LaunchRequest>& batch,
                            const ConsolidationTemplate* tmpl) {
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

  // Assemble the candidate set.
  gpusim::LaunchPlan plan;
  plan.reuse_constant_data = options_.optimizations.constant_data_reuse;
  std::vector<std::size_t> staged;
  std::vector<int> messages;
  std::vector<std::optional<cpusim::CpuTask>> profiles;
  std::vector<RequestContext> contexts;
  {
    std::lock_guard lock(state_mutex_);
    for (auto& req : batch) {
      gpusim::KernelInstance inst;
      inst.desc = req.desc;
      inst.owner = req.owner;
      inst.instance_id = next_instance_id_++;
      plan.instances.push_back(std::move(inst));
      staged.push_back(req.staged_bytes);
      messages.push_back(req.api_messages);
      contexts.push_back({req.request_id, req.trace_id, req.parent_span_id});
      report.kernel_names.push_back(req.desc.name);
      auto it = cpu_profiles_.find(req.desc.name);
      if (it != cpu_profiles_.end()) {
        cpusim::CpuTask t = it->second;
        t.instance_id = plan.instances.back().instance_id;
        profiles.emplace_back(std::move(t));
      } else {
        profiles.emplace_back(std::nullopt);
      }
    }
  }

  const Duration overhead = decision_.overhead(
      plan.instances, staged, messages, options_.optimizations);
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
        bounded_decide(plan, profiles, overhead, &degraded_reason);
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
      chosen, plan, profiles,
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
