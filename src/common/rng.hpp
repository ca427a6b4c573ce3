// Deterministic pseudo-random number generation.
//
// Every stochastic component in the library (measurement noise, arrival
// processes, random candidate selection) draws from an explicitly seeded Rng
// so that tests and experiments are reproducible bit-for-bit across runs.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace ewc::common {

/// A seedable RNG wrapper around xoshiro-quality std::mt19937_64 with the
/// convenience draws the library needs. Not thread safe: each thread or
/// component owns its own instance (split via `fork`).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    std::uniform_int_distribution<std::int64_t> d(lo, hi);
    return d(engine_);
  }

  /// Gaussian with the given mean and standard deviation.
  double gaussian(double mean, double stddev) {
    std::normal_distribution<double> d(mean, stddev);
    return d(engine_);
  }

  /// Exponential inter-arrival time with the given rate (events / second).
  double exponential(double rate) {
    std::exponential_distribution<double> d(rate);
    return d(engine_);
  }

  /// Multiplicative noise factor: 1 + N(0, rel_sigma), clamped positive.
  /// A zero sigma is exactly 1.0 and draws nothing (std::normal_distribution
  /// requires stddev > 0).
  double noise_factor(double rel_sigma) {
    if (rel_sigma == 0.0) return 1.0;
    double f = gaussian(1.0, rel_sigma);
    return f > 0.05 ? f : 0.05;
  }

  /// Pick an index in [0, n) uniformly.
  std::size_t pick_index(std::size_t n) {
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Derive an independent child generator (stable given call order).
  Rng fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

}  // namespace ewc::common
