#include "workloads/paper_configs.hpp"

#include <algorithm>

#include "gpusim/device_config.hpp"
#include "perf/analytic.hpp"
#include "workloads/aes.hpp"
#include "workloads/blackscholes.hpp"
#include "workloads/compression.hpp"
#include "workloads/kmeans.hpp"
#include "workloads/montecarlo.hpp"
#include "workloads/search.hpp"
#include "workloads/sha256.hpp"
#include "workloads/sort.hpp"

namespace ewc::workloads {

gpusim::KernelDesc calibrate_gpu_seconds(gpusim::KernelDesc k,
                                         double target_seconds,
                                         const gpusim::DeviceConfig& dev) {
  perf::AnalyticModel model(dev);
  for (int iter = 0; iter < 3; ++iter) {
    const auto pred = model.predict(k);
    const double xfer = pred.h2d_time.seconds() + pred.d2h_time.seconds();
    const double kern = pred.kernel_time.seconds();
    const double want = std::max(1e-6, target_seconds - xfer);
    if (kern <= 0.0) break;
    k = k.with_work_scale(want / kern);
  }
  return k;
}

cpusim::CpuTask calibrate_cpu_seconds(const std::string& name, double seconds,
                                      int threads, double cache_sensitivity) {
  cpusim::CpuTask t;
  t.name = name;
  t.threads = threads;
  t.cache_sensitivity = cache_sensitivity;
  // A lone instance drains at `threads` core-seconds per second.
  t.core_seconds = seconds * threads;
  return t;
}

namespace {

InstanceSpec make_spec(std::string name, gpusim::KernelDesc gpu,
                       double gpu_seconds, double cpu_seconds,
                       int cpu_threads, double cache_sensitivity) {
  InstanceSpec s;
  s.name = name;
  s.gpu = calibrate_gpu_seconds(std::move(gpu), gpu_seconds,
                                gpusim::tesla_c1060());
  s.cpu = calibrate_cpu_seconds(name, cpu_seconds, cpu_threads,
                                cache_sensitivity);
  s.paper_gpu_seconds = gpu_seconds;
  s.paper_cpu_seconds = cpu_seconds;
  return s;
}

}  // namespace

// ---------------- Table 1 / homogeneous figures ----------------
// Paper quotes speedups, not absolute times, for Table 1; single-instance
// times are chosen at enterprise-request scale (seconds) with the quoted
// GPU-over-CPU speedup. Figure 1's text fixes encryption: GPU is 16% slower
// and 1.5x the energy of CPU for one 12 KB instance.

InstanceSpec encryption_12k() {
  AesParams p;
  p.input_bytes = 12 * 1024;
  p.threads_per_block = 256;
  return make_spec("encryption_12k", aes_kernel_desc(p),
                   /*gpu=*/2.38, /*cpu=*/2.0, /*threads=*/4, 0.35);
}

InstanceSpec encryption_6k() {
  AesParams p;
  p.input_bytes = 6 * 1024;
  p.threads_per_block = 128;
  return make_spec("encryption_6k", aes_kernel_desc(p),
                   /*gpu=*/4.0, /*cpu=*/0.6, /*threads=*/4, 0.35);
}

InstanceSpec sorting_6k() {
  SortParams p;
  p.num_elements = 6 * 1024;
  p.threads_per_block = 256;
  // 6 K elements at 4 per thread would need 6 blocks of 256 threads when the
  // tile is 1 K elements; Table 1 quotes 6 blocks.
  auto k = sort_kernel_desc(p);
  k.num_blocks = 6;
  return make_spec("sorting_6k", std::move(k),
                   /*gpu=*/2.0, /*cpu=*/2.9, /*threads=*/4, 0.6);
}

InstanceSpec search_10k() {
  SearchParams p;
  p.corpus_bytes = 10 * 1024;
  p.threads_per_block = 256;
  return make_spec("search_10k", search_kernel_desc(p),
                   /*gpu=*/2.5, /*cpu=*/1.2, /*threads=*/4, 0.7);
}

InstanceSpec blackscholes_4096k() {
  BlackScholesParams p;
  p.num_options = 4096 * 1024;
  p.num_blocks = 1;
  p.threads_per_block = 256;
  return make_spec("blackscholes_4096k", blackscholes_kernel_desc(p),
                   /*gpu=*/2.2, /*cpu=*/3.7, /*threads=*/8, 0.3);
}

InstanceSpec montecarlo_500k() {
  MonteCarloParams p;
  p.num_blocks = 1;
  p.threads_per_block = 128;
  p.path_steps = 500'000.0;
  return make_spec("montecarlo_500k", montecarlo_kernel_desc(p),
                   /*gpu=*/3.0, /*cpu=*/21.0, /*threads=*/8, 0.15);
}

// ---------------- Section III scenarios ----------------

InstanceSpec scenario1_montecarlo() {
  MonteCarloParams p;
  p.num_blocks = 45;
  p.threads_per_block = 128;
  p.path_steps = 50.0;  // paper: 50 computation iterations
  p.state_in_global = true;
  return make_spec("scenario1_mc", montecarlo_kernel_desc(p),
                   /*gpu=*/62.4, /*cpu=*/180.0, /*threads=*/8, 0.2);
}

InstanceSpec scenario1_encryption() {
  AesParams p;
  p.input_bytes = 15 * 256 * 16;  // 15 blocks x 256 threads x 16 B
  p.threads_per_block = 256;
  p.iterations = 1.0;  // paper: 1.0E+5 iterations; calibration rescales
  p.streaming = true;  // multi-pass requests stream the buffer from DRAM
  return make_spec("scenario1_encryption", aes_kernel_desc(p),
                   /*gpu=*/19.5, /*cpu=*/8.0, /*threads=*/4, 0.35);
}

InstanceSpec scenario2_blackscholes() {
  BlackScholesParams p;
  p.num_blocks = 45;
  p.threads_per_block = 256;
  p.iterations = 1000.0;  // paper: 1000 computation iterations
  p.num_options = 45 * 256;
  return make_spec("scenario2_bs", blackscholes_kernel_desc(p),
                   /*gpu=*/26.4, /*cpu=*/45.0, /*threads=*/8, 0.3);
}

InstanceSpec scenario2_search() {
  SearchParams p;
  p.corpus_bytes = 15 * 256 * 4;  // 15 blocks
  p.threads_per_block = 256;
  p.iterations = 6.0e6;  // paper: 6E+6 iterations; calibration rescales
  return make_spec("scenario2_search", search_kernel_desc(p),
                   /*gpu=*/49.2, /*cpu=*/25.0, /*threads=*/8, 0.7);
}

// ---------------- Section VIII heterogeneous experiments ----------------

// The Section VIII user requests are enterprise-sized (Table 1 grids): a
// search request occupies 10 blocks, a BlackScholes or MonteCarlo request a
// single block, an encryption request 15 blocks. Their memory behaviour is
// dependent-access dominated (mlp = 1), so a single instance leaves most of
// the device idle — which is precisely the headroom that makes the paper's
// 9x-19x consolidation wins possible.

InstanceSpec t56_search() {
  SearchParams p;
  p.corpus_bytes = 10 * 1024;  // Table 1: 10 K -> 10 blocks
  p.threads_per_block = 256;
  auto k = search_kernel_desc(p);
  k.mlp = 1.0;  // per-candidate verification chains, no pipelining
  return make_spec("search", std::move(k),
                   /*gpu=*/35.2, /*cpu=*/17.0, /*threads=*/2, 0.7);
}

InstanceSpec t56_blackscholes() {
  BlackScholesParams p;
  p.num_blocks = 1;  // Table 1: one block per request
  p.threads_per_block = 256;
  p.num_options = 256;
  return make_spec("blackscholes", blackscholes_kernel_desc(p),
                   /*gpu=*/34.2, /*cpu=*/57.4, /*threads=*/2, 0.3);
}

InstanceSpec t78_encryption() {
  AesParams p;
  p.input_bytes = 15 * 256 * 16;  // 15 blocks (paper Scenario 1 shape)
  p.threads_per_block = 256;
  auto k = aes_kernel_desc(p);
  k.mlp = 1.0;  // T-table gather chains: one outstanding miss per warp
  return make_spec("encryption", std::move(k),
                   /*gpu=*/45.7, /*cpu=*/7.2, /*threads=*/4, 0.35);
}

InstanceSpec t78_montecarlo() {
  MonteCarloParams p;
  p.num_blocks = 1;  // Table 1: one block per request
  p.threads_per_block = 128;
  p.path_steps = 500'000.0;
  p.state_in_global = false;  // the compute-bound SDK variant
  return make_spec("montecarlo", montecarlo_kernel_desc(p),
                   /*gpu=*/43.2, /*cpu=*/306.0, /*threads=*/2, 0.15);
}

namespace {

/// Uncalibrated spec: kernel and CPU profiles straight from the workload
/// modules. `gpu_seconds` is the kernel's single-instance time on the
/// default node, pinned rather than simulated at every lookup (a daemon
/// never reads it); golden_test's PinnedReferenceSeconds re-runs each
/// kernel and checks the constant bit for bit.
InstanceSpec first_principles_spec(const std::string& name,
                                   gpusim::KernelDesc gpu,
                                   cpusim::CpuTask cpu, double gpu_seconds) {
  InstanceSpec s;
  s.name = name;
  s.gpu = std::move(gpu);
  s.cpu = std::move(cpu);
  s.cpu.name = name;
  s.paper_gpu_seconds = gpu_seconds;
  s.paper_cpu_seconds = s.cpu.core_seconds / s.cpu.threads;
  return s;
}

}  // namespace

InstanceSpec kmeans_256k() {
  KmeansParams p;
  p.num_points = 256 * 1024;
  p.iterations = 400;  // analytics jobs iterate to convergence
  return first_principles_spec("kmeans", kmeans_kernel_desc(p),
                               kmeans_cpu_task(p), 0x1.2c9ea5eb02affp-3);
}

InstanceSpec sha256_64k() {
  Sha256Params p;
  p.num_messages = 64 * 1024;
  p.message_bytes = 4096;
  return first_principles_spec("sha256", sha256_kernel_desc(p),
                               sha256_cpu_task(p), 0x1.dda6dfe09d7d6p-4);
}

InstanceSpec compression_64m() {
  CompressionParams p;
  p.input_bytes = std::size_t{64} * 1024 * 1024;
  p.chunk_bytes = 256 * 1024;
  auto k = compression_kernel_desc(p);
  k.mlp = 1.0;  // byte-granular dependent scanning cannot pipeline
  return first_principles_spec("compression", std::move(k),
                               compression_cpu_task(p), 0x1.76a289b7503p-5);
}

std::vector<InstanceSpec> enterprise_specs() {
  return {encryption_12k(),   sorting_6k(),     search_10k(),
          t56_blackscholes(), t78_montecarlo(), kmeans_256k(),
          sha256_64k(),       compression_64m()};
}

std::vector<InstanceSpec> table1_specs() {
  return {encryption_12k(),      encryption_6k(), sorting_6k(),
          search_10k(),          blackscholes_4096k(),
          montecarlo_500k()};
}

namespace {

// Sorted by name: `ewcsim list` prints it in this order.
constexpr CatalogueEntry kCatalogue[] = {
    {"blackscholes_4096k", blackscholes_4096k},
    {"compression_64m", compression_64m},
    {"encryption_12k", encryption_12k},
    {"encryption_6k", encryption_6k},
    {"kmeans_256k", kmeans_256k},
    {"montecarlo_500k", montecarlo_500k},
    {"scenario1_encryption", scenario1_encryption},
    {"scenario1_montecarlo", scenario1_montecarlo},
    {"scenario2_blackscholes", scenario2_blackscholes},
    {"scenario2_search", scenario2_search},
    {"search_10k", search_10k},
    {"sha256_64k", sha256_64k},
    {"sorting_6k", sorting_6k},
    {"t56_blackscholes", t56_blackscholes},
    {"t56_search", t56_search},
    {"t78_encryption", t78_encryption},
    {"t78_montecarlo", t78_montecarlo},
};

}  // namespace

std::span<const CatalogueEntry> workload_catalogue() { return kCatalogue; }

std::optional<InstanceSpec> find_workload(std::string_view name) {
  for (const CatalogueEntry& e : kCatalogue) {
    if (e.name == name) return e.make();
  }
  return std::nullopt;
}

std::vector<gpusim::KernelInstance> gpu_instances(const InstanceSpec& spec,
                                                  int count, int first_id) {
  std::vector<gpusim::KernelInstance> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    gpusim::KernelInstance inst;
    inst.desc = spec.gpu;
    inst.instance_id = first_id + i;
    inst.owner = spec.name + "#" + std::to_string(first_id + i);
    out.push_back(std::move(inst));
  }
  return out;
}

std::vector<cpusim::CpuTask> cpu_tasks(const InstanceSpec& spec, int count,
                                       int first_id) {
  std::vector<cpusim::CpuTask> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    cpusim::CpuTask t = spec.cpu;
    t.instance_id = first_id + i;
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace ewc::workloads
