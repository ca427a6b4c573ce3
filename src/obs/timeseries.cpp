#include "obs/timeseries.hpp"

#include <algorithm>
#include <utility>

namespace ewc::obs {

Sampler::Sampler(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 2)),
      born_(std::chrono::steady_clock::now()) {}

void Sampler::add_gauge(std::string name, std::function<double()> fn) {
  std::lock_guard lock(mu_);
  Series& s = series_[std::move(name)];
  s.kind = Kind::kGauge;
  s.fn = std::move(fn);
  s.ring.resize(capacity_);
}

void Sampler::add_rate(std::string name, std::function<double()> cumulative) {
  std::lock_guard lock(mu_);
  Series& s = series_[std::move(name)];
  s.kind = Kind::kRate;
  s.fn = std::move(cumulative);
  s.ring.resize(capacity_);
}

void Sampler::add_ratio(std::string name,
                        std::function<double()> num_cumulative,
                        std::function<double()> den_cumulative) {
  std::lock_guard lock(mu_);
  Series& s = series_[std::move(name)];
  s.kind = Kind::kRatio;
  s.fn = std::move(num_cumulative);
  s.den_fn = std::move(den_cumulative);
  s.ring.resize(capacity_);
}

void Sampler::add_histogram_percentile(
    std::string name, std::function<HistogramSnapshot()> snapshot,
    double pct) {
  std::lock_guard lock(mu_);
  Series& s = series_[std::move(name)];
  s.kind = Kind::kPercentile;
  s.hist_fn = std::move(snapshot);
  s.pct = pct;
  s.ring.resize(capacity_);
}

void Sampler::tick_locked(double t_seconds) {
  const double dt = have_last_t_ ? t_seconds - last_t_ : 0.0;
  for (auto& [name, s] : series_) {
    double value = 0.0;
    switch (s.kind) {
      case Kind::kGauge:
        value = s.fn ? s.fn() : 0.0;
        break;
      case Kind::kRate: {
        const double cum = s.fn ? s.fn() : 0.0;
        if (s.have_prev && dt > 1e-9) {
          value = std::max(0.0, (cum - s.prev) / dt);
        }
        s.prev = cum;
        s.have_prev = true;
        break;
      }
      case Kind::kRatio: {
        const double num = s.fn ? s.fn() : 0.0;
        const double den = s.den_fn ? s.den_fn() : 0.0;
        if (s.have_prev && den - s.prev_den > 0.0) {
          value = std::max(0.0, (num - s.prev) / (den - s.prev_den));
        }
        s.prev = num;
        s.prev_den = den;
        s.have_prev = true;
        break;
      }
      case Kind::kPercentile: {
        HistogramSnapshot cum = s.hist_fn ? s.hist_fn() : HistogramSnapshot{};
        if (s.have_prev) {
          const HistogramSnapshot d = diff_snapshots(cum, s.prev_hist);
          value = d.empty() ? 0.0 : d.percentile(s.pct);
        }
        s.prev_hist = std::move(cum);
        s.have_prev = true;
        break;
      }
    }
    s.ring[s.next] = SeriesPoint{t_seconds, value};
    s.next = (s.next + 1) % s.ring.size();
    s.written += 1;
  }
  have_last_t_ = true;
  last_t_ = t_seconds;
}

void Sampler::sample_at(double t_seconds) {
  std::lock_guard lock(mu_);
  tick_locked(t_seconds);
}

void Sampler::sample_now() {
  sample_at(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          born_)
                .count());
}

std::map<std::string, SeriesSnapshot> Sampler::snapshot() const {
  std::lock_guard lock(mu_);
  std::map<std::string, SeriesSnapshot> out;
  for (const auto& [name, s] : series_) {
    SeriesSnapshot& snap = out[name];
    const std::size_t n =
        std::min<std::uint64_t>(s.written, s.ring.size());
    const std::size_t start = s.written > s.ring.size() ? s.next : 0;
    snap.points.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      snap.points.push_back(s.ring[(start + i) % s.ring.size()]);
    }
  }
  return out;
}

std::map<std::string, double> Sampler::last_values() const {
  std::lock_guard lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, s] : series_) {
    if (s.written == 0) continue;
    const std::size_t last =
        (s.next + s.ring.size() - 1) % s.ring.size();
    out[name] = s.ring[last].value;
  }
  return out;
}

}  // namespace ewc::obs
