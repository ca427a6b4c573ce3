// The kStats / kMetrics answer path shared by ewcd and the router.
//
// Both processes serve the two telemetry frames the same way: a kStats
// reply is the process's stats snapshot (ewcd: the obs::Registry snapshot;
// router: that snapshot folded with its polled shards, see
// router::fold_fleet_stats), and a kMetrics reply carries the process's
// sampler rings plus, on request, the Prometheus exposition of the registry
// counters and the newest sampled values.
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
/// reactor serves frames; read-only afterwards.
struct Telemetry {
  /// Origin of the replies' uptime.
  std::chrono::steady_clock::time_point started_at{};
  /// The kStats body.
  std::function<obs::RegistrySnapshot()> stats;
  /// Runs before a kMetrics reply samples, so a one-shot scrape reads
  /// values as of now (the router's fresh shard poll). May be empty.
  std::function<void()> refresh;
  /// The kMetrics time-series rings; null when the sampler is disabled.
  std::unique_ptr<obs::Sampler> sampler;
  double interval_seconds = 0.0;  ///< sampler tick, reported in kMetrics
  obs::Counter stats_requests, metrics_requests;
  /// Gauges the serving object reports itself (ewcd: server.max_clients
  /// and server.connections.live, which the router's placement reads),
  /// served in kStats and in the Prometheus exposition. They belong to the
  /// server object rather than the process-wide registry, so two servers in
  /// one process each report their own. Unset: none.
  std::function<std::map<std::string, double>()> gauges;
};

/// A shard's unanswered launches: server.admitted - server.replies -
/// server.deadline_expired - server.drain.failed_replies, floored at 0.
/// `counter` reads one counter by name (ewcd: its registry; the router: a
/// shard's polled kStats reply).
double inflight(const std::function<double(const std::string&)>& counter);

/// Answer one kStats or kMetrics frame from `telemetry`. A malformed
/// request is answered with kError and the connection is closed; returns
/// false then.
bool answer_telemetry(const Reactor::ConnPtr& conn, const net::Frame& frame,
                      const Telemetry& telemetry);

}  // namespace ewc::server
