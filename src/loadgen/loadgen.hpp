// Open-loop, trace-driven load generator for a running ewcd daemon.
//
// The paper's headline claim — consolidation saves energy at equal-or-
// better throughput — only means something under sustained concurrent
// load, so this harness drives hundreds-to-thousands of client sessions
// against one daemon and measures what the daemon cannot measure about
// itself: END-TO-END latency (send to completion-frame receipt, wall
// clock), sustained requests/second, and joules per request (from the
// daemon's backend energy gauges over the kStats wire).
//
// Open-loop means arrival times come from a precomputed schedule, not from
// completions: a slow daemon faces a growing backlog exactly like a real
// overloaded service, instead of the harness politely waiting. The
// schedule — (time, session, workload) triples — is a deterministic
// function of (profile, mix, sessions, duration, seed), which is what
// makes two runs comparable and the determinism test possible.
//
// Per request the harness uses ClientConnection::launch_async: the
// completion callback runs on the session's reader thread and records the
// latency histogram, so 10k in-flight requests cost zero extra threads.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "consolidate/queue_sim.hpp"
#include "gpusim/kernel_desc.hpp"
#include "loadgen/profile.hpp"
#include "obs/histogram.hpp"
#include "server/client.hpp"

namespace ewc::loadgen {

/// One workload class in the traffic mix, pre-resolved to its kernel
/// descriptor (the CLI resolves names via the workload catalogue).
struct MixEntry {
  std::string name;
  double weight = 1.0;
  gpusim::KernelDesc desc;
};

struct LoadgenConfig {
  std::string socket_path;
  ArrivalProfile profile;
  std::vector<MixEntry> mix;
  int sessions = 500;
  double duration_seconds = 10.0;
  std::uint64_t seed = 42;
  /// Dispatcher threads; sessions are sharded session % dispatchers so one
  /// thread owns each session's send order.
  int dispatchers = 8;
  common::Duration connect_timeout = common::Duration::from_seconds(30.0);
  /// After the schedule is fully dispatched (and a flush issued), how long
  /// to wait for every outstanding completion before counting it lost.
  common::Duration drain_timeout = common::Duration::from_seconds(120.0);
  /// Per-session client resilience knobs (breaker, reconnect) pass through.
  server::ClientOptions client;
  /// When non-empty, append one "ewcd-bench-interval/v1" JSON line per
  /// elapsed second of the run (send phase through drain): interval rps,
  /// p50/p95 over just that interval's completions, and the in-flight
  /// backlog. Gives the time-resolved view the single end-of-run datapoint
  /// flattens away.
  std::string interval_jsonl;
};

/// One scheduled request: fires at `at_seconds` after harness start, on
/// session `session`, launching mix entry `mix_index`.
struct ScheduleEntry {
  double at_seconds = 0.0;
  std::uint32_t session = 0;
  std::uint32_t mix_index = 0;
};

/// The full deterministic schedule for a config: arrivals from the profile
/// (seeded), each assigned a session and a weighted mix draw. Sorted by
/// time. Pure function of the config — no wall clock, no I/O.
std::vector<ScheduleEntry> build_schedule(const LoadgenConfig& config);

/// A request trace for consolidate::QueueSimulator from the same schedule:
/// a poisson:rate=`rate` profile over `expected_requests` / `rate` seconds,
/// so `expected_requests` is the mean count, not an exact one. Each arrival
/// requests its weighted draw from `mix` (workload name, weight); user ids
/// number the arrivals from 0.
std::vector<consolidate::Request> poisson_requests(
    const std::vector<std::pair<std::string, double>>& mix, double rate,
    int expected_requests, std::uint64_t seed);

struct LoadgenResult {
  std::uint64_t sessions_connected = 0;
  std::uint64_t sent = 0;       ///< launch_async calls issued
  std::uint64_t completed = 0;  ///< completion callbacks fired
  std::uint64_t ok = 0;         ///< completions with ok=true
  std::uint64_t rejected = 0;   ///< admission rejections (in-flight limit)
  std::uint64_t failed = 0;     ///< other ok=false completions
  std::uint64_t lost = 0;       ///< sent but never answered within drain
  std::uint64_t duplicates = 0; ///< requests answered more than once
  double wall_seconds = 0.0;    ///< first send to last completion (or drain)
  obs::HistogramSnapshot latency;  ///< end-to-end seconds, all completions
  double requests_per_second = 0.0;  ///< completed / wall_seconds
  /// Daemon-side simulated energy over the run (backend.total_energy_joules
  /// delta via kStats); valid only when both stats snapshots succeeded.
  bool energy_valid = false;
  double energy_joules = 0.0;
  double joules_per_request = 0.0;  ///< energy_joules / ok (0 if no ok)
  /// Post-run daemon counter snapshot (server.*, backend.*, fault.*).
  std::map<std::string, double> daemon_counters;
};

/// Run the harness against a live daemon. False with *error when the run
/// could not even start (no daemon, zero sessions connected, bad config);
/// partial failures (lost requests, failed completions) are reported in
/// the result, not as errors — the caller decides what is acceptable.
bool run_loadgen(const LoadgenConfig& config, LoadgenResult* result,
                 std::string* error);

}  // namespace ewc::loadgen
