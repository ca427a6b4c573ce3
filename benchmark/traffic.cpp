#include "traffic.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <thread>

namespace ewc::bench {

namespace {

constexpr Nanos kSecond = 1'000'000'000;

Nanos to_ns(double seconds) {
  return static_cast<Nanos>(std::llround(seconds * 1e9));
}

void sleep_until_ns(Nanos t) {
  const timespec ts{static_cast<time_t>(t / kSecond),
                    static_cast<long>(t % kSecond)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

std::string session_owner(int i) { return "bench-s" + std::to_string(i); }

/// Put every thread of this process under SCHED_FIFO (lowest real-time
/// priority) or back under SCHED_OTHER. True when every thread changed.
bool set_realtime(bool on) {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return false;
  sched_param param{};
  param.sched_priority = on ? sched_get_priority_min(SCHED_FIFO) : 0;
  bool all = true;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    const pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
    all = sched_setscheduler(tid, on ? SCHED_FIFO : SCHED_OTHER, &param) == 0 &&
          all;
  }
  ::closedir(dir);
  return all;
}

/// Launch `r` on its session. The callback is cheap and never calls back
/// into the connection (the launch_async contract).
void launch(server::ClientConnection& conn, const gpusim::KernelDesc& desc,
            Request& r, bool traced, TrafficLog* log) {
  consolidate::LaunchRequest req;
  req.owner = conn.owner();
  req.desc = desc;
  req.api_messages = 1;
  Request* rp = &r;
  r.send = now_ns();
  conn.launch_async(
      std::move(req), [rp, log](const consolidate::CompletionReply& reply) {
        const Nanos t = now_ns();
        if (rp->answers.fetch_add(1, std::memory_order_relaxed) > 0) {
          log->duplicates.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        rp->done = t;
        rp->ok = reply.ok;
        const double finish = reply.finish_time.seconds();
        rp->finite_finish = reply.ok && std::isfinite(finish) && finish > 0.0;
        if (!reply.ok) {
          std::lock_guard lock(log->error_mu);
          if (log->first_error.empty()) log->first_error = reply.error;
        }
        log->completed.fetch_add(1, std::memory_order_release);
      });
  if (traced) r.sent = now_ns();
}

}  // namespace

Nanos now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool connect_sessions(const std::string& endpoint, int count,
                      Sessions* sessions, std::string* error) {
  sessions->clear();
  for (int i = 0; i < count; ++i) {
    std::string err;
    auto conn = server::ClientConnection::connect(
        endpoint, session_owner(i), common::Duration::from_seconds(10.0),
        &err);
    if (conn == nullptr) {
      *error = session_owner(i) + ": " + err;
      return false;
    }
    sessions->push_back(std::move(conn));
  }
  return true;
}

TrafficTimes drive(Sessions& sessions, const TrafficPlan& plan,
                   double drain_timeout_s,
                   const std::function<void(int)>& at_edge, TrafficLog* log) {
  // Default timer slack (50 us) would make every open-loop send late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  TrafficTimes times;
  times.realtime = set_realtime(true);
  times.t0 = now_ns();
  times.window_start = times.t0 + to_ns(plan.window_start);
  times.window_end = times.t0 + to_ns(plan.window_end);
  const Nanos edges[2] = {times.window_start, times.window_end};
  int next_edge = 0;
  auto pass_edges = [&](Nanos until) {
    while (next_edge < 2 && edges[next_edge] <= until) {
      sleep_until_ns(edges[next_edge]);
      at_edge(next_edge);
      ++next_edge;
    }
  };
  for (const auto& e : plan.schedule) {
    const Nanos due = times.t0 + to_ns(e.at_seconds);
    pass_edges(due);
    sleep_until_ns(due);
    Request& r = log->requests.emplace_back();
    r.session = e.session;
    r.due = due;
    launch(*sessions[e.session], plan.descs[e.mix_index], r, plan.traced, log);
  }
  pass_edges(std::numeric_limits<Nanos>::max());
  times.sent = log->requests.size();

  // Push the last partial batch through, and keep re-flushing: a flush
  // that raced the final launches can miss them.
  const Nanos deadline = now_ns() + to_ns(drain_timeout_s);
  Nanos next_flush = 0;
  while (log->completed.load(std::memory_order_acquire) < times.sent &&
         now_ns() < deadline) {
    if (now_ns() >= next_flush) {
      sessions.front()->flush(common::Duration::from_seconds(5.0));
      next_flush = now_ns() + kSecond / 2;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  set_realtime(false);
  return times;
}

}  // namespace ewc::bench
