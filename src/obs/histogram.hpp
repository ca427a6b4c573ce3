// Fixed log-bucket histograms for latency/size distributions.
//
// The paper's claims are distributional (Figures 3-8 report where requests
// spend their lives, not just end totals), so every layer that measures a
// latency, a batch size or an occupancy publishes into one of these instead
// of keeping a flat counter. Design constraints, in order:
//
//   * recording is wait-free (one atomic fetch-add on a fixed bucket) so the
//     simulation loop and the server's per-request path can record freely;
//   * snapshots are mergeable — the daemon sums per-process snapshots, the
//     STATS frame ships them over the wire, and the bench harnesses diff
//     them across runs — which log buckets give for free (same geometry on
//     both sides => merge is a vector add);
//   * percentiles (p50/p95/p99) come from the snapshot by interpolating
//     inside the covering bucket, with relative error bounded by the bucket
//     growth factor (2^(1/4) ~ 19% by default).
//
// Bucket i covers [min_value * g^i, min_value * g^(i+1)); values below
// min_value land in bucket 0, values at or above the top edge land in the
// dedicated overflow bucket (last). All histograms with equal geometry
// (min_value, growth, bucket count) merge exactly.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace ewc::obs {

/// Shared bucket geometry. Equality is what makes two snapshots mergeable.
struct HistogramParams {
  double min_value = 1e-6;  ///< lower edge of bucket 0
  double growth = 1.189207115002721;  ///< 2^(1/4): 4 buckets per octave
  int buckets = 160;  ///< regular buckets; +1 overflow is kept separately

  friend bool operator==(const HistogramParams&,
                         const HistogramParams&) = default;

  /// Finite min_value > 0, finite growth > 1, buckets >= 1. Geometry from
  /// outside the process (a STATS reply) is checked with this before use.
  bool valid() const;

  /// Lower edge of bucket i (i may be == buckets: the overflow threshold).
  double bucket_lower(int i) const;
  /// Index of the regular bucket covering v, or `buckets` for overflow.
  int bucket_index(double v) const;
};

/// An immutable copy of a histogram's state: what travels over the STATS
/// wire, lands in bench JSON, and answers percentile queries.
struct HistogramSnapshot {
  HistogramParams params;
  std::vector<std::uint64_t> counts;  ///< params.buckets + 1 (overflow last)
  std::uint64_t total = 0;
  double sum = 0.0;

  bool empty() const { return total == 0; }
  double mean() const { return total ? sum / static_cast<double>(total) : 0.0; }

  /// p in [0, 100]. Linear interpolation inside the covering bucket.
  /// Documented edge cases (pinned by tests/obs_test.cpp):
  ///   * empty snapshot: 0.0 for every p;
  ///   * NaN p: 0.0 (never the overflow threshold); p outside [0,100]
  ///     clamps;
  ///   * p=0: lower edge of the first occupied bucket;
  ///   * p=100: upper edge of the last occupied bucket;
  ///   * a rank resolving to the overflow bucket reports the overflow
  ///     threshold (the histogram cannot see beyond its top edge) — in
  ///     particular every p when all mass is overflow.
  double percentile(double p) const;

  /// Sum another snapshot into this one.
  /// @throws std::invalid_argument on mismatched geometry.
  void merge(const HistogramSnapshot& other);
};

/// A concurrently recordable histogram. record() is wait-free; snapshot()
/// is a racy-but-coherent read (each bucket read atomically; recording may
/// proceed concurrently).
class Histogram {
 public:
  /// @throws std::invalid_argument unless params.valid().
  explicit Histogram(HistogramParams params = {});

  void record(double value);
  HistogramSnapshot snapshot() const;
  const HistogramParams& params() const { return params_; }
  void clear();

 private:
  HistogramParams params_;
  std::vector<std::atomic<std::uint64_t>> counts_;  ///< buckets + 1
  std::atomic<std::uint64_t> total_{0};
  std::atomic<double> sum_{0.0};
};

/// The interval distribution between two cumulative snapshots of one
/// histogram: counts and totals subtract because geometry is fixed and
/// counts only grow. A geometry change underneath is treated as a fresh
/// start (returns `newer`).
HistogramSnapshot diff_snapshots(const HistogramSnapshot& newer,
                                 const HistogramSnapshot& older);

}  // namespace ewc::obs
