// The benchmark's load generator: a fixed set of client sessions driven
// from the calling thread, with completions recorded per request on the
// sessions' reader threads.
//
// The sender follows a loadgen schedule (open loop) and times every request
// from its scheduled due time, so a stalled sender is charged to the
// requests it delayed; the sender's own lateness is kept per request.
// Latencies are raw nanosecond stamps, not histogram buckets.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gpusim/kernel_desc.hpp"
#include "loadgen/loadgen.hpp"
#include "server/client.hpp"

namespace ewc::bench {

using Nanos = std::int64_t;

/// steady_clock nanoseconds (CLOCK_MONOTONIC).
Nanos now_ns();

/// One launched request. Fields after `session` are written once, by the
/// first completion callback, before it bumps TrafficLog::completed.
struct Request {
  Nanos due = 0;   ///< scheduled send time
  Nanos send = 0;  ///< launch_async entered
  Nanos sent = 0;  ///< launch_async returned (traced runs only)
  std::uint32_t session = 0;
  Nanos done = 0;  ///< completion callback ran
  bool ok = false;
  bool finite_finish = false;  ///< ok and 0 < finish_time < inf
  std::atomic<std::uint32_t> answers{0};
};

/// Everything the completion callbacks write. It must outlive the sessions:
/// tearing a session down fails its pending callbacks, which still land
/// here.
struct TrafficLog {
  std::deque<Request> requests;  ///< stable addresses as it grows
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> duplicates{0};
  std::mutex error_mu;
  std::string first_error;  ///< first failed reply's message
};

using Sessions = std::vector<std::unique_ptr<server::ClientConnection>>;

/// Dial `count` sessions one after another (the hello completes inside
/// connect()).
bool connect_sessions(const std::string& endpoint, int count,
                      Sessions* sessions, std::string* error);

struct TrafficPlan {
  /// The requests to send.
  std::vector<loadgen::ScheduleEntry> schedule;
  std::vector<gpusim::KernelDesc> descs;  ///< by ScheduleEntry::mix_index
  /// Window edges, seconds after the traffic starts.
  double window_start = 0.0;
  double window_end = 0.0;
  /// Stamp launch_async's return on every request (client spans).
  bool traced = false;
};

struct TrafficTimes {
  Nanos t0 = 0;  ///< traffic start
  Nanos window_start = 0, window_end = 0;  ///< nominal edges
  std::uint64_t sent = 0;
  /// Every thread of this process ran SCHED_FIFO while the traffic ran.
  bool realtime = false;
};

/// Run the plan to completion on the calling thread, then flush (on
/// session 0) until every request is answered or `drain_timeout_s`
/// passes. `at_edge(0)` / `at_edge(1)` run on this thread at the window
/// start and end.
///
/// Meanwhile every thread of this process (the sender and the sessions'
/// reader threads) runs SCHED_FIFO when the process may, and SCHED_OTHER
/// again afterwards, so the daemons spawned later do not inherit it. The
/// generator shares the host's cores with the daemons: under SCHED_OTHER
/// about 1% of launches on a 4-core host were preempted by a daemon
/// thread for 2-6 ms, which made the generator, not the daemon, set p99.
TrafficTimes drive(Sessions& sessions, const TrafficPlan& plan,
                   double drain_timeout_s,
                   const std::function<void(int)>& at_edge, TrafficLog* log);

}  // namespace ewc::bench
