#include "perf/consolidation_model.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

namespace ewc::perf {

namespace {

/// One kernel's aggregate DRAM demand for the phased-sharing analysis.
struct MemDemand {
  std::string kernel;
  double bytes = 0.0;     ///< device-wide bytes the kernel must move
  double cap_rate = 0.0;  ///< bytes/s its resident warps can pull (MLP cap)
  double eff = 1.0;       ///< stream's DRAM row-locality efficiency
};

/// Phased bandwidth sharing: while several kernels have outstanding memory
/// demand, effective DRAM bandwidth (degraded by the demand-weighted stream
/// efficiency and the kernel-mixing penalty) is split proportionally to each
/// kernel's demand cap; when one kernel's demand drains, the shares are
/// recomputed. This refines the paper's "bandwidth sharing always happens"
/// assumption at kernel granularity while remaining a static model (no block
/// scheduling, no per-SM state). Returns each demand's finish time.
std::vector<double> phased_memory_finish(const gpusim::DeviceConfig& dev,
                                         std::vector<MemDemand> demands) {
  std::vector<double> finish(demands.size(), 0.0);
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (demands[i].bytes > 0.0 && demands[i].cap_rate > 0.0) {
      active.push_back(i);
    }
  }
  double t = 0.0;
  while (!active.empty()) {
    double total_cap = 0.0;
    double eff_weighted = 0.0;
    std::set<std::string> names;
    for (std::size_t i : active) {
      total_cap += demands[i].cap_rate;
      eff_weighted += demands[i].cap_rate * demands[i].eff;
      names.insert(demands[i].kernel);
    }
    const double mixing = std::max(
        dev.min_mixing_efficiency,
        1.0 - dev.mixing_penalty_per_kernel *
                  (static_cast<double>(names.size()) - 1.0));
    const double eff_bw = dev.dram_bandwidth.bytes_per_second() *
                          (eff_weighted / total_cap) * mixing;
    const double scale = std::min(1.0, eff_bw / total_cap);

    // Next kernel to drain under the current shares.
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t i : active) {
      dt = std::min(dt, demands[i].bytes / (demands[i].cap_rate * scale));
    }
    t += dt;
    std::vector<std::size_t> still;
    for (std::size_t i : active) {
      demands[i].bytes -= demands[i].cap_rate * scale * dt;
      if (demands[i].bytes <= 1e-6) {
        finish[i] = t;
      } else {
        still.push_back(i);
      }
    }
    active = std::move(still);
  }
  return finish;
}

/// Build the per-instance demand vector for a plan. `one_block_per_sm`
/// restricts the demand cap to one block per SM (type 1); otherwise the cap
/// covers all simultaneously-resident blocks.
std::vector<MemDemand> plan_demands(const gpusim::DeviceConfig& dev,
                                    const LaunchPlan& plan,
                                    bool one_block_per_sm) {
  std::vector<MemDemand> demands(plan.instances.size());
  for (std::size_t i = 0; i < plan.instances.size(); ++i) {
    const auto& k = plan.instances[i].desc;
    if (k.num_blocks == 0 || !k.has_mem_work()) continue;
    const double warps = k.warps_per_block(dev);
    const int resident =
        one_block_per_sm
            ? k.num_blocks
            : std::min(k.num_blocks, max_resident_blocks(dev, k) * dev.num_sms);
    demands[i].kernel = k.name;
    demands[i].bytes =
        k.warp_mem_bytes(dev) * warps * static_cast<double>(k.num_blocks);
    demands[i].cap_rate =
        per_warp_memory_cap(dev, k) * warps * static_cast<double>(resident);
    demands[i].eff = k.dram_efficiency(dev);
  }
  return demands;
}

}  // namespace

ConsolidationModel::ConsolidationModel(gpusim::DeviceConfig dev)
    : dev_(dev), analytic_(dev) {}

ConsolidationType ConsolidationModel::classify(const LaunchPlan& plan) const {
  return plan.total_blocks() <= dev_.num_sms ? ConsolidationType::kType1
                                             : ConsolidationType::kType2;
}

Duration ConsolidationModel::transfer_h2d(const LaunchPlan& plan) const {
  std::set<std::string> constants_seen;
  Duration t = Duration::zero();
  for (const auto& inst : plan.instances) {
    double bytes = inst.desc.h2d_bytes.bytes();
    double cbytes = inst.desc.resources.constant_data.bytes();
    if (cbytes > 0.0) {
      if (!plan.reuse_constant_data ||
          constants_seen.insert(inst.desc.name).second) {
        bytes += cbytes;
      }
    }
    t += analytic_.h2d_time(common::Bytes::from_bytes(bytes));
  }
  return t;
}

Duration ConsolidationModel::transfer_d2h(const LaunchPlan& plan) const {
  Duration t = Duration::zero();
  for (const auto& inst : plan.instances) {
    t += analytic_.d2h_time(inst.desc.d2h_bytes);
  }
  return t;
}

ConsolidationPrediction ConsolidationModel::predict(const LaunchPlan& plan) const {
  if (plan.instances.empty()) {
    throw std::invalid_argument("ConsolidationModel: empty plan");
  }
  return classify(plan) == ConsolidationType::kType1 ? predict_type1(plan)
                                                     : predict_type2(plan);
}

ConsolidationPrediction ConsolidationModel::predict_type1(
    const LaunchPlan& plan) const {
  ConsolidationPrediction pred;
  pred.type = ConsolidationType::kType1;
  const double clock = dev_.shader_clock.hertz();

  const auto finish =
      phased_memory_finish(dev_, plan_demands(dev_, plan, true));

  Duration longest = Duration::zero();
  for (std::size_t i = 0; i < plan.instances.size(); ++i) {
    const auto& k = plan.instances[i].desc;
    Duration t = Duration::zero();
    if (k.num_blocks > 0) {
      // One block per SM: the block's warps own the SM's issue bandwidth.
      const double warps = k.warps_per_block(dev_);
      const double comp_s = k.warp_compute_cycles(dev_) * warps / clock;
      const double stall_s = k.warp_stall_cycles(dev_) / clock;
      t = Duration::from_seconds(std::max({comp_s, stall_s, finish[i]}));
    }
    pred.per_instance.push_back(
        InstancePrediction{plan.instances[i].instance_id, k.name, t});
    longest = std::max(longest, t);
  }

  pred.kernel_time = longest;
  pred.h2d_time = transfer_h2d(plan);
  pred.d2h_time = transfer_d2h(plan);
  pred.total_time = pred.h2d_time + pred.kernel_time + pred.d2h_time;
  pred.execution_cycles = pred.kernel_time.seconds() * clock;
  return pred;
}

ConsolidationPrediction ConsolidationModel::predict_type2(
    const LaunchPlan& plan) const {
  ConsolidationPrediction pred;
  pred.type = ConsolidationType::kType2;
  const double clock = dev_.shader_clock.hertz();

  // ---- replay the block scheduler (compute side + critical SM) ----
  // Mirror the GigaThread dispatch the paper describes: the combined grid is
  // distributed round-robin in template order, with blocks CO-RESIDING on an
  // SM while registers / shared memory / threads allow. Blocks that do not
  // fit anywhere are the "untouched" blocks the scheduler later redistributes
  // to whichever SM frees first — statically approximated by assigning them
  // to the SM with the lightest solo-time load (ties: lowest SM index).
  //
  // An overflow block adds load but no resources, so once a kernel's block
  // fits no SM, none of that kernel's later blocks does either: the kernel
  // stops probing, and its remaining blocks go through a min-heap keyed
  // (solo_load, SM index) at O(log S) each.
  struct SmLoad {
    double solo_load = 0.0;  ///< solo-time load estimate, seconds
    double comp_cycles = 0.0;
    double stall_seconds = 0.0;  ///< serialized barrier-stall floor
    int threads = 0;
    int nblocks = 0;
    std::int64_t regs = 0;
    std::int64_t smem = 0;
    /// Assigned blocks in assignment order as (instance index, count) runs.
    std::vector<std::pair<int, int>> runs;
  };
  const int num_sms = dev_.num_sms;
  std::vector<SmLoad> sms(static_cast<std::size_t>(num_sms));
  using LoadKey = std::pair<double, int>;  ///< (solo_load, SM index)
  std::vector<LoadKey> heap;
  heap.reserve(sms.size());
  int rr = 0;
  for (std::size_t i = 0; i < plan.instances.size(); ++i) {
    const auto& k = plan.instances[i].desc;
    if (k.num_blocks <= 0) continue;
    const int inst = static_cast<int>(i);
    const double solo = analytic_.solo_block_time(k).seconds();
    const double warps = k.warps_per_block(dev_);
    const double comp = k.warp_compute_cycles(dev_) * warps;
    // Co-resident blocks stall concurrently; only serialized waves add.
    const double stall =
        k.warp_stall_cycles(dev_) / (clock * max_resident_blocks(dev_, k));
    const std::int64_t regs =
        static_cast<std::int64_t>(k.resources.registers_per_thread) *
        k.threads_per_block;
    const auto fits = [&](const SmLoad& sm) {
      return sm.nblocks + 1 <= dev_.max_blocks_per_sm &&
             sm.threads + k.threads_per_block <= dev_.max_threads_per_sm &&
             sm.regs + regs <= dev_.registers_per_sm &&
             sm.smem + k.resources.shared_mem_per_block <=
                 dev_.shared_mem_per_sm;
    };
    const auto assign = [&](SmLoad& sm) {
      sm.solo_load += solo;
      sm.comp_cycles += comp;
      sm.stall_seconds += stall;
      if (!sm.runs.empty() && sm.runs.back().first == inst) {
        ++sm.runs.back().second;
      } else {
        sm.runs.emplace_back(inst, 1);
      }
    };

    int b = 0;
    for (; b < k.num_blocks; ++b) {
      int chosen = -1;
      for (int probe = 0; probe < num_sms; ++probe) {
        const int s = (rr + probe) % num_sms;
        if (fits(sms[static_cast<std::size_t>(s)])) {
          chosen = s;
          break;
        }
      }
      if (chosen < 0) break;
      SmLoad& sm = sms[static_cast<std::size_t>(chosen)];
      sm.threads += k.threads_per_block;
      sm.nblocks += 1;
      sm.regs += regs;
      sm.smem += k.resources.shared_mem_per_block;
      rr = (chosen + 1) % num_sms;
      assign(sm);
    }
    if (b == k.num_blocks) continue;

    heap.clear();
    for (int s = 0; s < num_sms; ++s) {
      heap.emplace_back(sms[static_cast<std::size_t>(s)].solo_load, s);
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
    for (; b < k.num_blocks; ++b) {
      SmLoad& sm = sms[static_cast<std::size_t>(heap.front().second)];
      assign(sm);
      // Only the top's key grew: sift it down to restore the min-heap.
      const LoadKey moved{sm.solo_load, heap.front().second};
      std::size_t pos = 0;
      for (std::size_t child = 1; child < heap.size(); child = 2 * pos + 1) {
        if (child + 1 < heap.size() && heap[child + 1] < heap[child]) ++child;
        if (!(heap[child] < moved)) break;
        heap[pos] = heap[child];
        pos = child;
      }
      heap[pos] = moved;
    }
  }

  double comp_worst = 0.0;
  double load_worst = 0.0;
  int critical = 0;
  for (std::size_t s = 0; s < sms.size(); ++s) {
    comp_worst = std::max(
        comp_worst, std::max(sms[s].comp_cycles / clock, sms[s].stall_seconds));
    if (sms[s].solo_load > load_worst) {
      load_worst = sms[s].solo_load;
      critical = static_cast<int>(s);
    }
  }

  // ---- memory side: phased device-level bandwidth sharing ----
  const auto finish =
      phased_memory_finish(dev_, plan_demands(dev_, plan, false));
  const double mem_worst =
      finish.empty() ? 0.0 : *std::max_element(finish.begin(), finish.end());

  // The merged "big workload" on the critical SM finishes when both its
  // compute serialization and the device's memory drain are done.
  const double worst = std::max(comp_worst, mem_worst);

  pred.kernel_time = Duration::from_seconds(worst);
  pred.critical_sm = critical;
  for (const auto& [inst, count] :
       sms[static_cast<std::size_t>(critical)].runs) {
    pred.critical_sm_blocks.insert(pred.critical_sm_blocks.end(), count, inst);
  }
  pred.h2d_time = transfer_h2d(plan);
  pred.d2h_time = transfer_d2h(plan);
  pred.total_time = pred.h2d_time + pred.kernel_time + pred.d2h_time;
  pred.execution_cycles = worst * clock;
  return pred;
}

Duration ConsolidationModel::predict_serial(
    const std::vector<gpusim::KernelInstance>& instances) const {
  Duration total = Duration::zero();
  for (const auto& inst : instances) {
    total += analytic_.predict(inst.desc).total_time;
  }
  return total;
}

}  // namespace ewc::perf
