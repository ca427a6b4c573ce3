#include "consolidate/backend.hpp"

#include <algorithm>
#include <utility>

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

/// A reply to `req` that echoes its ids (not ok).
CompletionReply reply_to(const LaunchRequest& req) {
  CompletionReply reply;
  reply.request_id = req.request_id;
  reply.owner = req.owner;
  reply.session = req.session;
  return reply;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
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
                 power::GpuPowerModel power_model, ServedMix mix,
                 BackendOptions options)
    : context_("backend", std::size_t{4} * 1024 * 1024 * 1024),
      former_(engine, std::move(power_model), std::move(mix), options, *this) {
  obs::Registry& registry = obs::Registry::instance();
  batch_fill_ = registry.histogram("backend.batch_fill_seconds");
  close_check_seconds_ = registry.histogram("backend.close_check_seconds");
  worker_ = std::thread([this] { run_loop(); });
}

Backend::Backend(const gpusim::FluidEngine& engine,
                 power::GpuPowerModel power_model, TemplateRegistry templates,
                 BackendOptions options)
    : Backend(engine, std::move(power_model),
              ServedMix{std::move(templates), {}}, options) {}

Backend::~Backend() { shutdown(); }

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
  former_.stop();  // waits out an in-flight decide (stalls are finite)
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
  for (;;) {
    auto msg = channel_.receive();
    if (!msg.has_value()) {
      // Closed without a ShutdownRequest (a crashing producer): answer what
      // is pending instead of leaving its frontends blocked forever.
      former_.abandon("backend channel closed before batch executed");
      break;
    }
    if (std::holds_alternative<ShutdownRequest>(*msg)) {
      former_.flush();
      break;
    }
    if (auto* flush = std::get_if<FlushRequest>(&*msg)) {
      former_.flush();
      flush->done->send(true);
      continue;
    }
    if (former_.pending() == 0) fill_start_ = std::chrono::steady_clock::now();
    former_.add(std::move(std::get<LaunchRequest>(*msg)));
  }
}

void Backend::checking() { check_start_ = std::chrono::steady_clock::now(); }

void Backend::checked() {
  close_check_seconds_->record(seconds_since(check_start_));
}

void Backend::closing(std::size_t /*launches*/) {
  batch_fill_->record(seconds_since(fill_start_));
}

double Backend::group_start() {
  // Each request gets a "backend.request" slice over [here, reply send);
  // groups run back to back in simulated time, after all that ran before.
  if (!obs::Tracer::enabled()) return 0.0;
  group_start_us_ = obs::Tracer::now_us();
  std::lock_guard lock(state_mutex_);
  return total_time_.seconds();
}

void Backend::failed(std::vector<LaunchRequest> requests,
                     const std::string& error) {
  std::vector<CompletionReply> replies;
  for (const LaunchRequest& req : requests) {
    replies.push_back(reply_to(req));
    replies.back().error = error;
  }
  send_replies(requests, std::move(replies));
}

void Backend::executed(BatchReport report, std::vector<LaunchRequest> batch,
                       std::vector<common::Duration> finish_times) {
  const Alternative chosen = report.executed;
  {
    std::lock_guard lock(state_mutex_);
    total_time_ += report.total_time;
    total_energy_ += report.energy;
    reports_.push_back(std::move(report));
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

  const bool tracing = obs::Tracer::enabled();
  std::vector<CompletionReply> replies(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    replies[i] = reply_to(batch[i]);
    replies[i].ok = true;
    replies[i].where = where_of(chosen);
    replies[i].finish_time = finish_times[i];
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
      ev.ts_us = group_start_us_;
      ev.dur_us = obs::Tracer::now_us() - group_start_us_;
      obs::Tracer::instance().record(std::move(ev));
    }
  }
  send_replies(batch, std::move(replies));
}

}  // namespace ewc::consolidate
