#include "loadgen/loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "consolidate/protocol.hpp"
#include "obs/jsonl.hpp"

namespace ewc::loadgen {

namespace {

using Clock = std::chrono::steady_clock;

std::string session_owner(int i) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "lg-%05d", i);
  return buf;
}

/// Atomic tallies shared by every completion callback. Callbacks run on
/// session reader threads, so everything here is relaxed-atomic.
struct Tally {
  std::atomic<std::uint64_t> completed{0}, ok{0}, rejected{0}, failed{0},
      duplicates{0};
};

bool is_admission_rejection(const consolidate::CompletionReply& reply) {
  return reply.error.find("in-flight limit") != std::string::npos;
}

}  // namespace

std::vector<ScheduleEntry> build_schedule(const LoadgenConfig& config) {
  std::vector<ScheduleEntry> schedule;
  if (config.mix.empty() || config.sessions <= 0) return schedule;
  common::Rng rng(config.seed);
  const auto arrivals =
      generate_arrivals(config.profile, config.duration_seconds, rng);
  double total_weight = 0.0;
  for (const auto& m : config.mix) total_weight += m.weight;
  schedule.reserve(arrivals.size());
  for (const double t : arrivals) {
    ScheduleEntry e;
    e.at_seconds = t;
    e.session = static_cast<std::uint32_t>(
        rng.pick_index(static_cast<std::size_t>(config.sessions)));
    double draw = rng.uniform() * total_weight;
    std::uint32_t idx = 0;
    for (; idx + 1 < config.mix.size(); ++idx) {
      draw -= config.mix[idx].weight;
      if (draw < 0.0) break;
    }
    e.mix_index = idx;
    schedule.push_back(e);
  }
  return schedule;  // arrivals are generated in time order already
}

std::vector<consolidate::Request> poisson_requests(
    const std::vector<std::pair<std::string, double>>& mix, double rate,
    int expected_requests, std::uint64_t seed) {
  LoadgenConfig config;
  config.profile.kind = ArrivalProfile::Kind::kPoisson;
  config.profile.rate = rate;
  for (const auto& [name, weight] : mix) {
    config.mix.push_back({name, weight, {}});
  }
  config.sessions = 1;
  config.duration_seconds = expected_requests / rate;
  config.seed = seed;
  std::vector<consolidate::Request> requests;
  for (const ScheduleEntry& e : build_schedule(config)) {
    requests.push_back({e.at_seconds, mix[e.mix_index].first,
                        static_cast<int>(requests.size())});
  }
  return requests;
}

bool run_loadgen(const LoadgenConfig& config, LoadgenResult* result,
                 std::string* error) {
  *result = LoadgenResult{};
  if (config.mix.empty()) {
    if (error) *error = "empty workload mix";
    return false;
  }
  if (config.sessions <= 0) {
    if (error) *error = "sessions must be >= 1";
    return false;
  }
  const auto schedule = build_schedule(config);

  // Destruction order matters: the tallies, histogram, and answered flags
  // are captured by completion callbacks that can fire until the session
  // connections join their reader threads, so the connections (declared
  // after) must be destroyed first.
  Tally tally;
  obs::Histogram latency_hist;
  std::vector<std::atomic<std::uint32_t>> answered(schedule.size());
  std::vector<std::unique_ptr<server::ClientConnection>> conns(
      static_cast<std::size_t>(config.sessions));

  // Dial all sessions in parallel — 500 sequential handshakes would take
  // longer than the smoke run itself.
  {
    std::atomic<int> connected{0};
    std::string first_error;
    std::mutex error_mu;
    const int threads =
        std::min(config.sessions, 32);
    std::vector<std::thread> dialers;
    for (int d = 0; d < threads; ++d) {
      dialers.emplace_back([&, d] {
        for (int s = d; s < config.sessions; s += threads) {
          server::ClientOptions copts = config.client;
          copts.jitter_seed =
              config.client.jitter_seed + static_cast<std::uint64_t>(s);
          std::string err;
          auto conn = server::ClientConnection::connect(
              config.socket_path, session_owner(s), config.connect_timeout,
              copts, &err);
          if (conn == nullptr) {
            std::lock_guard lock(error_mu);
            if (first_error.empty()) {
              first_error = session_owner(s) + ": " + err;
            }
            continue;
          }
          conns[static_cast<std::size_t>(s)] = std::move(conn);
          connected.fetch_add(1);
        }
      });
    }
    for (auto& t : dialers) t.join();
    result->sessions_connected =
        static_cast<std::uint64_t>(connected.load());
    if (connected.load() != config.sessions) {
      if (error) {
        *error = "connected " + std::to_string(connected.load()) + "/" +
                 std::to_string(config.sessions) +
                 " sessions; first failure: " + first_error;
      }
      return false;
    }
  }

  // A separate control connection for flush + before/after stats, so the
  // measurement traffic never mixes with a measured session's stream. It
  // gets the same resilience knobs as the sessions: against a fleet, the
  // drain-phase flushes and the closing stats must survive the control
  // connection's shard dying mid-run.
  std::string err;
  auto control = server::ClientConnection::connect(
      config.socket_path, "lg-control", config.connect_timeout, config.client,
      &err);
  if (control == nullptr) {
    if (error) *error = "control connection: " + err;
    return false;
  }
  const auto stats_before =
      control->stats(/*include_histograms=*/false, config.connect_timeout);

  // Shard the schedule: dispatcher d owns every entry whose session is
  // congruent to d, preserving the global time order within the shard.
  const int dispatchers =
      std::clamp(config.dispatchers, 1, config.sessions);
  std::vector<std::vector<std::size_t>> shards(
      static_cast<std::size_t>(dispatchers));
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    shards[schedule[i].session % static_cast<std::uint32_t>(dispatchers)]
        .push_back(i);
  }

  std::atomic<std::uint64_t> sent{0};
  const auto t0 = Clock::now();

  // Interval monitor: while the run is live (send phase through drain),
  // append one "ewcd-bench-interval/v1" row per second — interval rps and
  // percentiles from diffing the cumulative tallies/histogram between
  // ticks. Joined before teardown so it never reads a dead histogram.
  std::thread monitor;
  std::mutex monitor_mu;
  std::condition_variable monitor_cv;
  bool monitor_stop = false;
  if (!config.interval_jsonl.empty()) {
    monitor = std::thread([&] {
      double t_prev = 0.0;
      std::uint64_t sent_prev = 0, completed_prev = 0, ok_prev = 0;
      obs::HistogramSnapshot hist_prev = latency_hist.snapshot();
      std::unique_lock lock(monitor_mu);
      for (;;) {
        monitor_cv.wait_for(lock, std::chrono::seconds(1),
                            [&] { return monitor_stop; });
        const bool last = monitor_stop;
        lock.unlock();
        const double t_now =
            std::chrono::duration<double>(Clock::now() - t0).count();
        const std::uint64_t sent_now = sent.load(std::memory_order_relaxed);
        const std::uint64_t completed_now =
            tally.completed.load(std::memory_order_relaxed);
        const std::uint64_t ok_now = tally.ok.load(std::memory_order_relaxed);
        obs::HistogramSnapshot hist_now = latency_hist.snapshot();
        const obs::HistogramSnapshot d =
            obs::diff_snapshots(hist_now, hist_prev);
        const double dt = t_now - t_prev;
        std::ostringstream os;
        os.precision(10);
        os << "{\"schema\":\"ewcd-bench-interval/v1\""
           << ",\"t_start_s\":" << t_prev << ",\"t_end_s\":" << t_now
           << ",\"sent\":" << sent_now - sent_prev
           << ",\"completed\":" << completed_now - completed_prev
           << ",\"ok\":" << ok_now - ok_prev << ",\"rps\":"
           << (dt > 1e-9
                   ? static_cast<double>(completed_now - completed_prev) / dt
                   : 0.0)
           << ",\"p50_s\":" << d.percentile(50.0)
           << ",\"p95_s\":" << d.percentile(95.0)
           << ",\"inflight\":" << sent_now - completed_now << "}";
        std::string write_err;
        obs::append_jsonl_line(config.interval_jsonl, os.str(), &write_err);
        t_prev = t_now;
        sent_prev = sent_now;
        completed_prev = completed_now;
        ok_prev = ok_now;
        hist_prev = std::move(hist_now);
        lock.lock();
        if (last) return;
      }
    });
  }

  std::vector<std::thread> senders;
  for (int d = 0; d < dispatchers; ++d) {
    senders.emplace_back([&, d] {
      for (const std::size_t i : shards[static_cast<std::size_t>(d)]) {
        const ScheduleEntry& entry = schedule[i];
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(entry.at_seconds)));
        auto& conn = *conns[entry.session];
        consolidate::LaunchRequest req;
        req.owner = conn.owner();
        req.desc = config.mix[entry.mix_index].desc;
        req.api_messages = 1;
        const auto t_send = Clock::now();
        sent.fetch_add(1, std::memory_order_relaxed);
        conn.launch_async(
            std::move(req),
            [&tally, &latency_hist, &answered, i,
             t_send](const consolidate::CompletionReply& reply) {
              if (answered[i].fetch_add(1, std::memory_order_relaxed) > 0) {
                tally.duplicates.fetch_add(1, std::memory_order_relaxed);
                return;
              }
              latency_hist.record(
                  std::chrono::duration<double>(Clock::now() - t_send)
                      .count());
              tally.completed.fetch_add(1, std::memory_order_relaxed);
              if (reply.ok) {
                tally.ok.fetch_add(1, std::memory_order_relaxed);
              } else if (is_admission_rejection(reply)) {
                tally.rejected.fetch_add(1, std::memory_order_relaxed);
              } else {
                tally.failed.fetch_add(1, std::memory_order_relaxed);
              }
            });
      }
    });
  }
  for (auto& t : senders) t.join();

  // Drain: everything is dispatched; flush pushes the daemon's pending
  // partial batch through, then we wait for the callbacks. Re-flush
  // periodically — a flush that raced the last sends can miss them.
  const auto drain_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             config.drain_timeout.seconds()));
  auto next_flush = Clock::now();
  while (tally.completed.load() + tally.duplicates.load() <
             sent.load() &&
         Clock::now() < drain_deadline) {
    if (Clock::now() >= next_flush) {
      control->flush(common::Duration::from_seconds(30.0));
      next_flush = Clock::now() + std::chrono::seconds(2);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto t_end = Clock::now();

  // Stop the interval monitor first: its final (partial) row covers up to
  // the drain end, and it must not outlive the tallies it reads.
  if (monitor.joinable()) {
    {
      std::lock_guard lock(monitor_mu);
      monitor_stop = true;
    }
    monitor_cv.notify_all();
    monitor.join();
  }

  // Snapshot the tallies BEFORE tearing down connections: teardown fails
  // any still-pending callback with a "connection dead" reply, and those
  // must count as lost, not as late failures.
  result->sent = sent.load();
  result->completed = tally.completed.load();
  result->ok = tally.ok.load();
  result->rejected = tally.rejected.load();
  result->failed = tally.failed.load();
  result->duplicates = tally.duplicates.load();
  result->lost = result->sent - result->completed;
  result->wall_seconds = std::chrono::duration<double>(t_end - t0).count();
  result->latency = latency_hist.snapshot();
  result->requests_per_second =
      result->wall_seconds > 0.0
          ? static_cast<double>(result->completed) / result->wall_seconds
          : 0.0;

  const auto stats_after =
      control->stats(/*include_histograms=*/false, config.connect_timeout);
  if (stats_after.has_value()) {
    result->daemon_counters = stats_after->counters;
    if (stats_before.has_value()) {
      auto energy_of = [](const server::StatsReplyMsg& m) {
        const auto it = m.counters.find("backend.total_energy_joules");
        return it == m.counters.end() ? 0.0 : it->second;
      };
      result->energy_valid = true;
      result->energy_joules = energy_of(*stats_after) - energy_of(*stats_before);
      result->joules_per_request =
          result->ok > 0
              ? result->energy_joules / static_cast<double>(result->ok)
              : 0.0;
    }
  }
  return true;
}

}  // namespace ewc::loadgen
