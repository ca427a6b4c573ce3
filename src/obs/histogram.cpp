#include "obs/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ewc::obs {

bool HistogramParams::valid() const {
  return std::isfinite(min_value) && min_value > 0.0 &&
         std::isfinite(growth) && growth > 1.0 && buckets >= 1;
}

double HistogramParams::bucket_lower(int i) const {
  return min_value * std::pow(growth, static_cast<double>(i));
}

int HistogramParams::bucket_index(double v) const {
  if (!(v > min_value)) return 0;  // also catches NaN and negatives
  const int i =
      static_cast<int>(std::floor(std::log(v / min_value) / std::log(growth)));
  return std::clamp(i, 0, buckets);
}

double HistogramSnapshot::percentile(double p) const {
  if (total == 0) return 0.0;
  // NaN must be rejected before clamp: it survives std::clamp (every
  // comparison is false), makes `rank` NaN, and the scan below then walks
  // past every bucket and reports the overflow threshold as if the
  // histogram were saturated.
  if (std::isnan(p)) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the target observation, 0-based, linearly spread over the count
  // (matches common::percentile's interpolation on sorted samples).
  const double rank = p / 100.0 * static_cast<double>(total - 1);
  std::uint64_t seen = 0;
  for (int i = 0; i < static_cast<int>(counts.size()); ++i) {
    const std::uint64_t c = counts[static_cast<std::size_t>(i)];
    if (c == 0) continue;
    if (rank < static_cast<double>(seen + c)) {
      if (i >= params.buckets) return params.bucket_lower(params.buckets);
      // Interpolate inside the bucket by the fraction of its occupants
      // below the target rank.
      const double lo = params.bucket_lower(i);
      const double hi = params.bucket_lower(i + 1);
      // p=100 means "the maximum observed": report the covering (= last
      // occupied) bucket's upper edge. The rank formula alone would land
      // at an interior point — exactly `lo` when the bucket holds one
      // observation — understating the max by up to one growth factor.
      if (p >= 100.0) return hi;
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(c);
      return lo + (hi - lo) * frac;
    }
    seen += c;
  }
  return params.bucket_lower(params.buckets);
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (!(params == other.params) || counts.size() != other.counts.size()) {
    throw std::invalid_argument(
        "HistogramSnapshot::merge: mismatched bucket geometry");
  }
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  total += other.total;
  sum += other.sum;
}

Histogram::Histogram(HistogramParams params) : params_(params) {
  if (!params_.valid()) {
    throw std::invalid_argument("Histogram: bad bucket geometry");
  }
  counts_ = std::vector<std::atomic<std::uint64_t>>(
      static_cast<std::size_t>(params_.buckets) + 1);
}

void Histogram::record(double value) {
  const int i = params_.bucket_index(value);
  counts_[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.params = params_;
  s.counts.reserve(counts_.size());
  for (const auto& c : counts_) {
    s.counts.push_back(c.load(std::memory_order_relaxed));
  }
  s.total = total_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  // A snapshot racing record() can see total ahead of the bucket writes;
  // clamp so percentile() never walks past the bucket mass it actually saw.
  std::uint64_t bucket_mass = 0;
  for (auto c : s.counts) bucket_mass += c;
  s.total = std::min(s.total, bucket_mass);
  return s;
}

void Histogram::clear() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  total_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

HistogramSnapshot diff_snapshots(const HistogramSnapshot& newer,
                                 const HistogramSnapshot& older) {
  if (older.counts.size() != newer.counts.size() ||
      !(older.params == newer.params)) {
    return newer;
  }
  HistogramSnapshot d;
  d.params = newer.params;
  d.counts.resize(newer.counts.size());
  for (std::size_t i = 0; i < newer.counts.size(); ++i) {
    d.counts[i] = newer.counts[i] >= older.counts[i]
                      ? newer.counts[i] - older.counts[i]
                      : 0;
    d.total += d.counts[i];
  }
  d.sum = newer.sum - older.sum;
  return d;
}

}  // namespace ewc::obs
