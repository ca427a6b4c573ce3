// The order a batch's launches take in its launch plans.
//
// Results never depend on who sent a launch: owners and instance ids enter
// neither a simulation nor a prediction, nor any memo key
// (gpusim/sim_cache.hpp). Ordering a batch by kernel name first therefore
// turns every batch with the same launches per kernel into the same id-free
// plan, whatever the session interleaving it arrived in, so its
// consolidated run, its single-instance plans, its predictions and its close
// check are each computed once and then replayed from the memos. The owner,
// then the arrival position, break ties, so the order is deterministic
// however host threads raced to the backend.
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <string_view>
#include <vector>

namespace ewc::consolidate {

/// Positions 0..n-1 of a batch in plan order: by `kernel(i)` (the kernel
/// name), then `owner(i)`, then position. Both callables return something
/// convertible to std::string_view. The position tie-break makes the order
/// total, so an unstable sort, which needs no buffer, gives the stable
/// order.
template <typename Kernel, typename Owner>
std::vector<std::size_t> plan_order(std::size_t n, Kernel&& kernel,
                                    Owner&& owner) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (const int c = std::string_view(kernel(a)).compare(kernel(b)); c != 0) {
      return c < 0;
    }
    if (const int c = std::string_view(owner(a)).compare(owner(b)); c != 0) {
      return c < 0;
    }
    return a < b;
  });
  return order;
}

}  // namespace ewc::consolidate
