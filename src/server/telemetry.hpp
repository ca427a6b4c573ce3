// The kStats answer path shared by ewcd and the router.
//
// Both processes serve the one telemetry frame the same way: a kStats reply
// is the process's stats snapshot (ewcd: the obs::Registry snapshot;
// router: that snapshot folded with its polled shards, see
// router::fold_fleet_stats) plus, on request, the process's sampler rings
// and the Prometheus exposition of the registry counters and the newest
// sampled values.
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/frame.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "server/reactor.hpp"

namespace ewc::server {

/// One process's telemetry endpoint. Filled in by start() before the
/// reactor serves frames; read-only afterwards, except for the sampler's
/// schedule, which only on_tick touches.
struct Telemetry {
  /// Origin of the replies' uptime.
  std::chrono::steady_clock::time_point started_at{};
  /// The kStats body. It runs before a series request samples, so a
  /// one-shot scrape reads values as of now (the router's stats() runs a
  /// fresh shard poll).
  std::function<obs::RegistrySnapshot()> stats;
  /// The time-series rings; null when the sampler is disabled.
  std::unique_ptr<obs::Sampler> sampler;
  double interval_seconds = 0.0;  ///< sampler tick, reported with the series
  /// When the sampler is next due; only on_tick reads or advances it.
  std::chrono::steady_clock::time_point next_sample{};
  obs::Counter stats_requests;
  /// Gauges the serving object reports itself (ewcd: server.max_clients
  /// and server.connections.live, which the router's placement reads),
  /// served in kStats and in the Prometheus exposition. They belong to the
  /// server object rather than the process-wide registry, so two servers in
  /// one process each report their own. Unset: none.
  std::function<std::map<std::string, double>()> gauges;

  /// Sample on the first call, then once interval_seconds has passed since
  /// the last sample. Called from the reactor's tick (every 50 ms), so an
  /// interval under one tick samples on every tick.
  void on_tick(std::chrono::steady_clock::time_point now);
};

/// A shard's unanswered launches: server.admitted - server.replies -
/// server.deadline_expired - server.drain.failed_replies, floored at 0.
/// `counter` reads one counter by name (ewcd: its registry; the router: a
/// shard's polled kStats reply).
double inflight(const std::function<double(const std::string&)>& counter);

/// Answer one kStats frame from `telemetry`. A malformed
/// request is answered with kError and the connection is closed; returns
/// false then.
bool answer_telemetry(const Reactor::ConnPtr& conn, const net::Frame& frame,
                      const Telemetry& telemetry);

}  // namespace ewc::server
