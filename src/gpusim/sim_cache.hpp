// Memoization layer for simulation and prediction results.
//
// The decision stack and the ewcd backend evaluate the same workload shapes
// over and over: the cache maps a *canonical launch-plan signature* — kernel
// names, grid/block dims, resource usage, instruction mix, work scale,
// transfers and the constant-reuse flag — to previously computed results.
// The signature's `key` is an exact binary encoding (fixed-width fields,
// every double as its raw IEEE-754 bit pattern), so two requests share an
// entry only if the simulator would be handed bit-identical inputs; a hit is
// therefore bit-identical to a fresh run. Entries are LRU-bounded and the
// cache keeps hit / miss / eviction counters.
//
// Keys carry neither instance ids nor owners: FluidEngine::run and the
// prediction models read ids only as labels on completions (pinned by
// GoldenDigests.InstanceIdsOnlyLabelCompletions), and RunMemo reports finish
// times by plan position. Keys carry no device or energy config either: a
// cache belongs to one engine (one DeviceConfig + EnergyConfig) for its
// whole lifetime.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gpusim/engine.hpp"
#include "gpusim/kernel_desc.hpp"
#include "gpusim/metrics.hpp"
#include "obs/registry.hpp"

namespace ewc::gpusim {

/// Monotone counters describing a cache's lifetime behaviour.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;  ///< current resident entries

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
  CacheStats& operator+=(const CacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    entries += o.entries;
    return *this;
  }
};

/// A cache's CacheStats published on obs::Registry as the gauges
/// `<prefix>.hits`, `<prefix>.misses` and `<prefix>.evictions`. The handles
/// are resolved once, at construction.
class CacheCounters {
 public:
  explicit CacheCounters(const std::string& prefix);
  void publish(const CacheStats& s) const;

 private:
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
};

/// Canonical identity of one simulation/prediction request.
struct PlanSignature {
  std::string key;  ///< exact encoding; equality is collision-free
};

/// The canonical, id-free signature of `plan`: every KernelDesc field of
/// every instance, in plan order, plus the constant-reuse flag. Instance ids
/// and owners never affect results and are excluded.
PlanSignature plan_signature(const LaunchPlan& plan);

/// Append `v` to `key` in the signatures' exact fixed-width encoding, for
/// memos whose keys extend a plan's with inputs of their own.
void append_key(std::string& key, std::int64_t v);
/// Append every field of `desc` to `key`, as plan_signature encodes it.
void append_key(std::string& key, const KernelDesc& desc);
/// Whether append_key encodes `a` and `b` identically (every field equal
/// bit for bit), without encoding either.
bool same_key(const KernelDesc& a, const KernelDesc& b);

/// Thread-safe LRU map from PlanSignature to an arbitrary result type.
template <typename Value>
class SimCache {
 public:
  explicit SimCache(std::size_t capacity = 1024)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  std::size_t capacity() const { return capacity_; }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  /// Returns a copy of the cached value and refreshes its LRU position.
  std::optional<Value> get(const PlanSignature& sig) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(sig.key);
    if (it == index_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    entries_.splice(entries_.begin(), entries_, it->second);
    return entries_.front().second;
  }

  /// Inserts (or refreshes) `value`, evicting the least-recently-used entry
  /// once past capacity.
  void put(const PlanSignature& sig, Value value) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(sig.key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      entries_.splice(entries_.begin(), entries_, it->second);
      return;
    }
    entries_.emplace_front(sig.key, std::move(value));
    index_.emplace(std::string_view(entries_.front().first),
                   entries_.begin());
    if (entries_.size() > capacity_) {
      index_.erase(std::string_view(entries_.back().first));
      entries_.pop_back();
      ++evictions_;
    }
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    index_.clear();
    entries_.clear();
  }

  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    CacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.entries = entries_.size();
    return s;
  }

 private:
  using Entry = std::pair<std::string, Value>;

  std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> entries_;  ///< front = most recently used
  // Views point at the list entries' keys; list nodes never relocate.
  std::unordered_map<std::string_view, typename std::list<Entry>::iterator>
      index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// What callers read from one FluidEngine run — not the full RunResult,
/// whose SM stats, power segments and occupancy samples nobody on the
/// request path looks at.
struct RunOutcome {
  Duration total_time = Duration::zero();
  Energy system_energy = Energy::zero();
  /// Each instance's finish time, relative to the run's start, by its
  /// position in the plan.
  std::vector<Duration> finish_times;
};

/// Project a full RunResult of `plan` onto what RunMemo callers read.
RunOutcome outcome_of(const LaunchPlan& plan, const RunResult& run);

/// The memo for GPU execution: FluidEngine::run keyed by the id-free plan
/// signature, bounded by an LRU of `capacity` entries. A hit is
/// bit-identical to a fresh run. With tracing on, a miss records the
/// engine's own spans and a hit records one `gpusim.run` sim span at the
/// same anchor carrying `"cached":true`. Thread-safe.
class RunMemo {
 public:
  /// `engine` must outlive the memo.
  RunMemo(const FluidEngine& engine, std::size_t capacity);

  /// The outcome of `engine.run(plan)`. Instance ids must be unique within
  /// the plan (they map completions to positions on a miss).
  /// @throws std::invalid_argument as FluidEngine::run does.
  RunOutcome run(const LaunchPlan& plan);

  CacheStats stats() const { return cache_.stats(); }

 private:
  const FluidEngine& engine_;
  SimCache<RunOutcome> cache_;
};

}  // namespace ewc::gpusim
