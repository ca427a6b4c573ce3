// Memoization layer for simulation and prediction results.
//
// The decision stack evaluates the same workload shapes millions of times in
// a datacenter replay: the cache maps a *canonical launch-plan signature* —
// kernel names, grid/block dims, resource usage, instruction mix, work
// scale, device-config hash, energy-config hash and optimization flags — to
// previously computed results. The signature's `key` is an exact binary
// encoding (fixed-width fields, every double as its raw IEEE-754 bit
// pattern), so two requests share an entry only if the simulator would be
// handed bit-identical inputs; a hit is therefore bit-identical to a fresh
// run. Entries are LRU-bounded and the cache keeps hit / miss / eviction
// counters for `ewcsim cache-stats` reporting.
//
// Invalidation is by construction: the device config and energy config are
// part of the key, so changing either simply stops matching old entries
// (callers that swap configs should also clear() to release dead entries).
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "gpusim/device_config.hpp"
#include "gpusim/kernel_desc.hpp"
#include "gpusim/metrics.hpp"

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

/// Canonical identity of one simulation/prediction request.
struct PlanSignature {
  std::string key;  ///< exact encoding; equality is collision-free
};

/// FNV-1a, the hash behind device_config_hash and energy_config_hash.
std::uint64_t fnv1a(std::string_view s);

/// Hash of every architectural field of a device config (the "device-config
/// hash" part of the cache key).
std::uint64_t device_config_hash(const DeviceConfig& dev);

/// Hash of every ground-truth energy/thermal parameter.
std::uint64_t energy_config_hash(const EnergyConfig& energy);

/// Build the canonical signature of `plan` on `dev` (+`energy` when the
/// cached value depends on the energy model, i.e. for simulator results).
///
/// @param tag  namespaces otherwise-identical requests (e.g. "run" vs
///             "serial" vs "predict") so their entries never alias.
/// @param include_instance_ids  instance ids are part of RunResult
///             (completions), so simulator results must key on them; pure
///             per-kernel predictions that only depend on the descriptor
///             pass false to share entries across batch positions.
///             The `owner` string never affects results and is always
///             excluded.
PlanSignature plan_signature(const LaunchPlan& plan, const DeviceConfig& dev,
                             const EnergyConfig* energy = nullptr,
                             std::string_view tag = "run",
                             bool include_instance_ids = true);

/// The device(+energy) portion of the key, encoded once. Long-lived callers
/// (DecisionEngine, QueueSimulator) precompute this so per-lookup signature
/// building only encodes the plan itself.
std::string config_key_prefix(const DeviceConfig& dev,
                              const EnergyConfig* energy = nullptr);

/// plan_signature with the static portion already encoded; identical output
/// to plan_signature when `config_prefix` came from config_key_prefix with
/// the same configs.
PlanSignature plan_signature_with_prefix(const LaunchPlan& plan,
                                         std::string_view config_prefix,
                                         std::string_view tag,
                                         bool include_instance_ids);

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

/// The simulator-result cache type QueueSimulator uses.
using RunResultCache = SimCache<RunResult>;

}  // namespace ewc::gpusim
