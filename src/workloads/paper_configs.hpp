// Per-experiment workload configurations (paper Sections III & VIII).
//
// Grid shapes (#blocks, #threads/block) and input sizes come straight from
// the paper. Because the original binaries and exact data are unavailable,
// per-request iteration counts are *calibrated*: the GPU instruction mixes
// keep their workload-characteristic shape (what is memory- vs compute- vs
// SFU-bound) and are uniformly scaled so that a single instance's predicted
// GPU time matches the paper's quoted measurement; CPU work is set so a
// single instance's CPU time matches the paper's quoted measurement. All
// multi-instance behaviour (consolidation wins/losses, contention,
// crossovers) then *emerges* from the simulators — nothing below fixes it.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cpusim/task.hpp"
#include "gpusim/kernel_desc.hpp"

namespace ewc::workloads {

/// One calibrated workload: the GPU descriptor and the CPU profile of a
/// single request instance.
struct InstanceSpec {
  std::string name;
  gpusim::KernelDesc gpu;
  cpusim::CpuTask cpu;
  double paper_gpu_seconds = 0.0;  ///< paper-quoted single-instance GPU time
  double paper_cpu_seconds = 0.0;  ///< paper-quoted single-instance CPU time
};

/// Scale `k`'s per-thread work so its predicted standalone total time (incl.
/// transfers) hits `target_seconds` on `dev` (3 fixed-point refinements).
gpusim::KernelDesc calibrate_gpu_seconds(gpusim::KernelDesc k,
                                         double target_seconds,
                                         const gpusim::DeviceConfig& dev);

/// CPU task whose single-instance runtime is exactly `seconds` at `threads`.
cpusim::CpuTask calibrate_cpu_seconds(const std::string& name, double seconds,
                                      int threads, double cache_sensitivity);

// ---- Table 1 / Figures 1, 7, 8 (homogeneous experiments) ----
InstanceSpec encryption_12k();     ///< AES 12 KB, 3 blk x 256 thr, speedup 0.84
InstanceSpec encryption_6k();      ///< AES 6 KB, 3 blk x 128 thr, speedup 0.15
InstanceSpec sorting_6k();         ///< sort 6 K, 6 blk x 256 thr, speedup 1.45
InstanceSpec search_10k();         ///< search 10 K, 10 blk x 256, speedup 0.48
InstanceSpec blackscholes_4096k(); ///< BS 4096 K, 1 blk x 256, speedup 1.68
InstanceSpec montecarlo_500k();    ///< MC 500 K steps, 1 blk x 128, speedup 7.0

// ---- Section III scenarios (Tables 2 & 3) ----
InstanceSpec scenario1_montecarlo();  ///< 45 blk, memory-bound variant, 62.4 s
InstanceSpec scenario1_encryption();  ///< 15 blk, 19.5 s
InstanceSpec scenario2_blackscholes();///< 45 blk, 26.4 s
InstanceSpec scenario2_search();      ///< 15 blk, 49.2 s

// ---- Section VIII heterogeneous experiments (Tables 5-8) ----
InstanceSpec t56_search();        ///< CPU 17 s, GPU 35.2 s
InstanceSpec t56_blackscholes();  ///< CPU 57.4 s, GPU 34.2 s
InstanceSpec t78_encryption();    ///< CPU 7.2 s, GPU 45.7 s
InstanceSpec t78_montecarlo();    ///< CPU 306 s, GPU 43.2 s

/// All Table 1 rows in paper order.
std::vector<InstanceSpec> table1_specs();

// ---- beyond-paper enterprise workloads (first-principles profiles, not
// calibrated to any paper measurement; paper_*_seconds report the resulting
// single-instance times on the default node for reference, the GPU one as a
// pinned constant) ----
InstanceSpec kmeans_256k();      ///< analytics: 256 K points, 16-dim, k=8
InstanceSpec sha256_64k();       ///< integrity: 64 K x 4 KB messages
InstanceSpec compression_64m();  ///< ingest: 64 MB RLE job

/// The enterprise mix: the paper workloads + extensions, one spec each.
/// The names `ewcsim` serves are workload_catalogue()'s, below.
std::vector<InstanceSpec> enterprise_specs();

// ---- the named catalogue (`ewcsim list`, --workload) ----

/// One catalogue workload: the name `ewcsim` knows it by and the factory
/// that calibrates it.
struct CatalogueEntry {
  std::string_view name;
  InstanceSpec (*make)();
};

/// Every catalogue workload, sorted by name.
std::span<const CatalogueEntry> workload_catalogue();

/// The catalogue workload `name`, calibrated on this call (no other entry
/// is), or nullopt when the catalogue has no such name.
std::optional<InstanceSpec> find_workload(std::string_view name);

// ---- helpers ----
std::vector<gpusim::KernelInstance> gpu_instances(const InstanceSpec& spec,
                                                  int count, int first_id = 0);
std::vector<cpusim::CpuTask> cpu_tasks(const InstanceSpec& spec, int count,
                                       int first_id = 0);

}  // namespace ewc::workloads
