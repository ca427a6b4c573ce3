// Lock-light time-series sampling over counters and histograms.
//
// STATS gives point-in-time totals; autoscaling and `ewcsim top` need
// *history* — rps, p95, watts, joules/request over the last couple of
// minutes. A Sampler periodically evaluates registered providers and pushes
// one point per series into a fixed-size ring buffer (oldest overwritten),
// deriving the interesting shapes along the way:
//
//   * gauge      — the provider's value as-is (inflight, shards alive);
//   * rate       — d(cumulative)/dt between ticks (rps from server.replies,
//                  power_watts from backend.total_energy_joules — the same
//                  math the router's shard poller uses);
//   * ratio      — delta(numerator)/delta(denominator) between ticks
//                  (joules/request = d(energy)/d(replies));
//   * histogram percentile — the percentile of the *interval* distribution,
//                  i.e. of the count-diff between consecutive cumulative
//                  snapshots (p95 of requests completed this tick, not
//                  since boot).
//
// Cost model: the Sampler owns no thread. Its owner calls sample_now()
// when a tick is due (ewcd and the router do it from their reactor's tick
// through server::Telemetry::on_tick); each tick holds the sampler mutex
// while evaluating providers — hot paths never touch it. Readers (the
// kStats handler, for a series request) take the same mutex for a
// snapshot.
// Deterministic tests drive sample_at() directly with explicit timestamps.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.hpp"

namespace ewc::obs {

struct SeriesPoint {
  double t_seconds = 0.0;  ///< sampler timeline (seconds since start)
  double value = 0.0;
};

struct SeriesSnapshot {
  std::vector<SeriesPoint> points;  ///< oldest first
  double last() const { return points.empty() ? 0.0 : points.back().value; }
};

class Sampler {
 public:
  /// `capacity` points are kept per series (default two minutes at 1 Hz).
  explicit Sampler(std::size_t capacity = 120);
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  // ---- registration (any time; each tick sees the current set) ----
  void add_gauge(std::string name, std::function<double()> fn);
  /// Series value = (cumulative - previous cumulative) / dt.
  void add_rate(std::string name, std::function<double()> cumulative);
  /// Series value = delta(num) / delta(den); 0 when delta(den) <= 0.
  void add_ratio(std::string name, std::function<double()> num_cumulative,
                 std::function<double()> den_cumulative);
  /// Series value = percentile `pct` of the interval distribution (the diff
  /// of consecutive cumulative snapshots).
  void add_histogram_percentile(std::string name,
                                std::function<HistogramSnapshot()> snapshot,
                                double pct);

  /// One tick at an explicit timestamp (deterministic tests).
  void sample_at(double t_seconds);
  /// One tick on the wall clock (seconds since the Sampler was built).
  void sample_now();

  /// Copy of every series ring, oldest point first.
  std::map<std::string, SeriesSnapshot> snapshot() const;
  /// Just the newest value per series (Prometheus exposition).
  std::map<std::string, double> last_values() const;

 private:
  enum class Kind : std::uint8_t { kGauge, kRate, kRatio, kPercentile };

  struct Series {
    Kind kind = Kind::kGauge;
    std::function<double()> fn;       // gauge / rate cumulative / ratio num
    std::function<double()> den_fn;   // ratio denominator
    std::function<HistogramSnapshot()> hist_fn;
    double pct = 0.0;
    // Previous-tick state for the derived kinds.
    bool have_prev = false;
    double prev = 0.0;
    double prev_den = 0.0;
    HistogramSnapshot prev_hist;
    // Fixed-size ring of points.
    std::vector<SeriesPoint> ring;
    std::size_t next = 0;
    std::uint64_t written = 0;
  };

  void tick_locked(double t_seconds);

  const std::size_t capacity_;
  const std::chrono::steady_clock::time_point born_;

  mutable std::mutex mu_;
  std::map<std::string, Series> series_;
  bool have_last_t_ = false;
  double last_t_ = 0.0;
};

}  // namespace ewc::obs
