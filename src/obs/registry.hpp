// The process-wide metric registry: named counters and histograms.
//
// Every layer publishes here under dotted names ("server.replies",
// "backend.batch_size", ...; conventions in docs/OBSERVABILITY.md) and every
// reporting surface — the kStats frame, `ewcsim cache-stats`, the
// bench harnesses — reads one snapshot() instead of threading stats structs
// through every layer. Counters are doubles: most are event counts, some
// are gauges written with set().
//
// Hot paths resolve a handle once (one lookup under the registry mutex) and
// keep it: a Counter points at its atomic cell, so add()/inc() are a single
// relaxed fetch_add with no lock and no string hashing, and a Histogram*
// records wait-free. Cells and histograms live as long as the process —
// clear() zeroes them in place — so a cached handle never dangles.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/histogram.hpp"

namespace ewc::obs {

/// A borrowed pointer to one counter's atomic cell. Cheap to copy; valid for
/// the life of the process once obtained from Registry::counter(). The
/// default-constructed handle is a safe no-op sink. Like a pointer, a const
/// handle still writes its cell.
class Counter {
 public:
  Counter() = default;

  void add(double delta) const {
    if (cell_ == nullptr) return;
    cell_->fetch_add(delta, std::memory_order_relaxed);
  }
  void inc() const { add(1.0); }
  void set(double value) const {
    if (cell_ == nullptr) return;
    cell_->store(value, std::memory_order_relaxed);
  }
  double value() const {
    return cell_ == nullptr ? 0.0 : cell_->load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Counter(std::atomic<double>* cell) : cell_(cell) {}
  std::atomic<double>* cell_ = nullptr;
};

/// Every counter and histogram, read under one lock.
struct RegistrySnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, HistogramSnapshot> histograms;
};

class Registry {
 public:
  static Registry& instance();

  /// Find-or-create the named counter's cell. The slow path: call once per
  /// site, keep the handle.
  Counter counter(const std::string& name);
  /// Find-or-create the named histogram (default geometry). The pointer
  /// stays valid for the process lifetime.
  Histogram* histogram(const std::string& name);

  RegistrySnapshot snapshot() const;

  /// Zero every counter and histogram in place (tests; the CLI before a
  /// measured run). Outstanding handles stay valid.
  void clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<std::atomic<double>>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace ewc::obs
