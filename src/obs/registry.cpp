#include "obs/registry.hpp"

namespace ewc::obs {

Registry& Registry::instance() {
  // Leaked: published-to from arbitrary threads until process exit.
  static Registry* r = new Registry();
  return *r;
}

Counter Registry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& cell = counters_[name];
  if (cell == nullptr) cell = std::make_unique<std::atomic<double>>(0.0);
  return Counter(cell.get());
}

Histogram* Registry::histogram(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& h = histograms_[name];
  if (h == nullptr) h = std::make_unique<Histogram>();
  return h.get();
}

RegistrySnapshot Registry::snapshot() const {
  std::lock_guard lock(mu_);
  RegistrySnapshot out;
  for (const auto& [name, cell] : counters_) {
    out.counters.emplace(name, cell->load(std::memory_order_relaxed));
  }
  for (const auto& [name, h] : histograms_) {
    out.histograms.emplace(name, h->snapshot());
  }
  return out;
}

void Registry::clear() {
  std::lock_guard lock(mu_);
  for (auto& [name, cell] : counters_) {
    cell->store(0.0, std::memory_order_relaxed);
  }
  for (auto& [name, h] : histograms_) h->clear();
}

}  // namespace ewc::obs
