#include "server/telemetry.hpp"

#include <algorithm>

#include "obs/prometheus.hpp"
#include "server/protocol_wire.hpp"

namespace ewc::server {

double inflight(const std::function<double(const std::string&)>& counter) {
  return std::max(0.0, counter("server.admitted") - counter("server.replies") -
                           counter("server.deadline_expired") -
                           counter("server.drain.failed_replies"));
}

void Telemetry::on_tick(std::chrono::steady_clock::time_point now) {
  if (sampler == nullptr || now < next_sample) return;
  sampler->sample_now();
  // Keep the cadence, but after a stall (or on the first tick) restart it
  // from now rather than sample on every tick to catch up.
  const auto step =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(interval_seconds));
  next_sample += step;
  if (next_sample <= now) next_sample = now + step;
}

bool answer_telemetry(const Reactor::ConnPtr& conn, const net::Frame& frame,
                      const Telemetry& telemetry) {
  const auto req = decode_stats(frame.payload);
  if (!req.has_value()) {
    conn->send(static_cast<std::uint16_t>(MsgType::kError),
               encode_error({"malformed stats"}));
    conn->close_async();
    return false;
  }
  telemetry.stats_requests.inc();
  obs::RegistrySnapshot snap = telemetry.stats();
  std::map<std::string, double> gauges;
  if (telemetry.gauges) gauges = telemetry.gauges();
  for (const auto& [name, value] : gauges) snap.counters[name] = value;
  StatsReplyMsg reply;
  reply.token = req->token;
  reply.uptime_micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - telemetry.started_at)
          .count());
  reply.counters = std::move(snap.counters);
  if (req->include_histograms) reply.histograms = std::move(snap.histograms);
  const bool sample = req->include_series || req->include_prometheus;
  if (sample && telemetry.sampler != nullptr) {
    telemetry.sampler->sample_now();
    if (req->include_series) {
      reply.interval_seconds = telemetry.interval_seconds;
      reply.series = telemetry.sampler->snapshot();
    }
  }
  if (req->include_prometheus) {
    // The process's own counters, not a router's fleet fold. The derived
    // names (rps, p95_seconds, shard.<i>.rps, ...) never collide with the
    // dotted counter namespace.
    std::map<std::string, double> values =
        obs::Registry::instance().snapshot().counters;
    values.merge(gauges);
    if (telemetry.sampler != nullptr) {
      for (const auto& [name, value] : telemetry.sampler->last_values()) {
        values[name] = value;
      }
    }
    reply.prometheus_text = obs::prom::render_exposition(values);
  }
  conn->send(static_cast<std::uint16_t>(MsgType::kStatsReply),
             encode_stats_reply(reply));
  return true;
}

}  // namespace ewc::server
