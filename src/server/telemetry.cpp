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
  const auto uptime_micros = [&] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - telemetry.started_at)
            .count());
  };
  const bool is_stats =
      frame.type == static_cast<std::uint16_t>(MsgType::kStats);
  if (is_stats) {
    if (const auto req = decode_stats(frame.payload)) {
      telemetry.stats_requests.inc();
      obs::RegistrySnapshot snap = telemetry.stats();
      if (telemetry.gauges) {
        for (const auto& [name, value] : telemetry.gauges()) {
          snap.counters[name] = value;
        }
      }
      StatsReplyMsg reply;
      reply.token = req->token;
      reply.uptime_micros = uptime_micros();
      reply.counters = std::move(snap.counters);
      if (req->include_histograms) {
        reply.histograms = std::move(snap.histograms);
      }
      conn->send(static_cast<std::uint16_t>(MsgType::kStatsReply),
                 encode_stats_reply(reply));
      return true;
    }
  } else if (const auto req = decode_metrics(frame.payload)) {
    telemetry.metrics_requests.inc();
    MetricsReplyMsg reply;
    reply.token = req->token;
    reply.uptime_micros = uptime_micros();
    if (telemetry.sampler != nullptr) {
      if (telemetry.refresh) telemetry.refresh();
      telemetry.sampler->sample_now();
      reply.interval_seconds = telemetry.interval_seconds;
      reply.series = telemetry.sampler->snapshot();
    }
    if (req->include_prometheus) {
      // The derived names (rps, p95_seconds, shard.<i>.rps, ...) never
      // collide with the dotted counter namespace.
      std::map<std::string, double> values =
          obs::Registry::instance().snapshot().counters;
      if (telemetry.gauges) values.merge(telemetry.gauges());
      if (telemetry.sampler != nullptr) {
        for (const auto& [name, value] : telemetry.sampler->last_values()) {
          values[name] = value;
        }
      }
      reply.prometheus_text = obs::prom::render_exposition(values);
    }
    conn->send(static_cast<std::uint16_t>(MsgType::kMetricsReply),
               encode_metrics_reply(reply));
    return true;
  }
  conn->send(
      static_cast<std::uint16_t>(MsgType::kError),
      encode_error({is_stats ? "malformed stats" : "malformed metrics"}));
  conn->close_async();
  return false;
}

}  // namespace ewc::server
