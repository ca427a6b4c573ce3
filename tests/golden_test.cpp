// Golden-digest + differential harness for the FluidEngine rewrite
// (ctest label: golden).
//
// Five layers of protection:
//   1. Checked-in FNV-1a digests of complete RunResults for the paper's
//      figure/table configurations. ANY change to the simulator's numerics
//      or event semantics — times, energies, per-SM counts, occupancy
//      samples, event counts — flips a digest. The scalar reference and the
//      SIMD path must BOTH reproduce every checked-in value (they are
//      bit-identical by construction; see docs/SIMULATOR.md).
//   2. A seeded differential fuzzer: ~1k randomized plans over varied
//      devices (SM counts, residency caps, bandwidth pressure, dispatch
//      policies) asserting the SIMD path bit-identical to the scalar
//      reference. There are NO tolerance exceptions; a failure prints the
//      seed and a minimal repro plan.
//   3. Checked-in digests of the consolidation model's predictions
//      (perf::ConsolidationModel::predict, every ConsolidationPrediction
//      field) for named plans plus one digest over a ~1k-plan corpus, so a
//      rewrite of the type-2 block-scheduler replay must reproduce it bit
//      for bit.
//   4. An id-independence digest: every fixture and corpus plan is run and
//      predicted under ids 0..n-1 and under remapped ids, and must give
//      bit-identical totals, per-position finish times and predictions.
//      Instance ids only label completions, which is what lets run and
//      prediction memos key on id-free plan signatures.
//   5. power::default_device_model(), the pinned model the daemon and the
//      CLI use, must equal a fresh training on the default node bit for bit;
//      a mismatch prints the replacement constants.
//
// Updating a digest is a deliberate act: rerun with EWC_GOLDEN_OUT=<file>
// (or read the failure message), verify the numeric change is intended, and
// paste the new value. CI builds both -DEWC_SIMD flavours and diffs their
// EWC_GOLDEN_OUT dumps, so a build-flavour-dependent digest cannot land.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "consolidate/decision.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/simd.hpp"
#include "perf/consolidation_model.hpp"
#include "power/trainer.hpp"
#include "workloads/paper_configs.hpp"
#include "workloads/rodinia_like.hpp"

namespace ewc {
namespace {

// ---- canonical RunResult digest -------------------------------------------

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Canonical serialization of everything the simulator computes. The wall_*
/// fields are deliberately EXCLUDED: they are host-side measurements, not
/// simulation outputs.
std::uint64_t digest_run(const gpusim::RunResult& r) {
  Fnv1a d;
  d.f64(r.total_time.seconds());
  d.f64(r.kernel_time.seconds());
  d.f64(r.h2d_time.seconds());
  d.f64(r.d2h_time.seconds());
  d.f64(r.system_energy.joules());
  d.f64(r.avg_system_power.watts());
  d.u64(r.sm_stats.size());
  for (const auto& sm : r.sm_stats) {
    d.f64(sm.busy.seconds());
    d.i64(sm.blocks_executed);
    d.f64(sm.counts.fp);
    d.f64(sm.counts.int_ops);
    d.f64(sm.counts.sfu);
    d.f64(sm.counts.coalesced_tx);
    d.f64(sm.counts.uncoalesced_tx);
    d.f64(sm.counts.shared);
    d.f64(sm.counts.constant);
    d.f64(sm.counts.reg);
  }
  d.f64(r.device_counts.fp);
  d.f64(r.device_counts.int_ops);
  d.f64(r.device_counts.sfu);
  d.f64(r.device_counts.coalesced_tx);
  d.f64(r.device_counts.uncoalesced_tx);
  d.f64(r.device_counts.shared);
  d.f64(r.device_counts.constant);
  d.f64(r.device_counts.reg);
  d.u64(r.power_segments.size());
  for (const auto& s : r.power_segments) {
    d.f64(s.start.seconds());
    d.f64(s.length.seconds());
    d.f64(s.system_power.watts());
  }
  d.u64(r.completions.size());
  for (const auto& c : r.completions) {
    d.i64(c.instance_id);
    d.str(c.kernel_name);
    d.f64(c.finish_time.seconds());
  }
  d.u64(r.occupancy.size());
  for (const auto& o : r.occupancy) {
    d.f64(o.time.seconds());
    d.i64(o.busy_sms);
    d.i64(o.resident_blocks);
    d.f64(o.dram_utilization);
  }
  d.f64(r.avg_temp_delta_kelvin);
  d.f64(r.avg_dram_utilization);
  d.f64(r.avg_sm_utilization);
  d.u64(r.fluid_events);
  return d.value();
}

/// The minimal repro a digest mismatch prints: enough to reconstruct the
/// exact FluidEngine::run call in a debugger or one-off main().
std::string describe_plan(const gpusim::DeviceConfig& dev,
                          const gpusim::LaunchPlan& plan) {
  std::ostringstream os;
  os << "device{sms=" << dev.num_sms
     << ",blk/sm=" << dev.max_blocks_per_sm
     << ",bw=" << dev.dram_bandwidth.bytes_per_second()
     << ",policy=" << static_cast<int>(dev.dispatch_policy)
     << ",seed=" << dev.dispatch_seed << "} reuse_const="
     << plan.reuse_constant_data << " instances[";
  for (const auto& inst : plan.instances) {
    os << " " << inst.desc.name << "#" << inst.instance_id << "("
       << inst.desc.num_blocks << "x" << inst.desc.threads_per_block << ")";
  }
  os << " ]";
  return os.str();
}

struct PathDigests {
  std::uint64_t scalar = 0;
  std::uint64_t simd = 0;
};

/// Run the plan under the scalar reference and (when compiled in) the SIMD
/// path. Always restores the environment-selected path.
PathDigests run_both(const gpusim::FluidEngine& engine,
                     const gpusim::LaunchPlan& plan) {
  PathDigests out;
  gpusim::set_simd_enabled(false);
  out.scalar = digest_run(engine.run(plan));
  if (gpusim::simd_compiled_in()) {
    gpusim::set_simd_enabled(true);
    out.simd = digest_run(engine.run(plan));
    gpusim::set_simd_enabled(false);
  } else {
    out.simd = out.scalar;
  }
  return out;
}

// ---- golden fixtures -------------------------------------------------------

struct Fixture {
  const char* name;
  std::uint64_t expected;
  std::function<gpusim::FluidEngine()> engine;
  std::function<gpusim::LaunchPlan()> plan;
};

gpusim::LaunchPlan plan_of(const std::vector<workloads::InstanceSpec>& specs) {
  gpusim::LaunchPlan plan;
  int id = 0;
  for (const auto& s : specs) {
    plan.instances.push_back(gpusim::KernelInstance{s.gpu, id++, ""});
  }
  return plan;
}

gpusim::LaunchPlan replicated(const workloads::InstanceSpec& spec, int n) {
  gpusim::LaunchPlan plan;
  for (int i = 0; i < n; ++i) {
    plan.instances.push_back(gpusim::KernelInstance{spec.gpu, i, ""});
  }
  return plan;
}

std::vector<Fixture> fixtures() {
  const auto tesla = [] { return gpusim::FluidEngine(); };
  const auto fermi = [] {
    return gpusim::FluidEngine(gpusim::fermi_c2050(), gpusim::c2050_energy());
  };
  return {
      // Paper Table 1 mix on the paper's device.
      {"tesla-table1-mix", 0x884eebe7f428baf1ull, tesla,
       [] { return plan_of(workloads::table1_specs()); }},
      // Section III consolidation scenarios.
      {"tesla-scenario1", 0x38bb6788c2e49baeull, tesla,
       [] {
         return plan_of({workloads::scenario1_montecarlo(),
                         workloads::scenario1_encryption()});
       }},
      // Fermi device over the full enterprise catalogue.
      {"fermi-enterprise-mix", 0xf01ede87e478bf06ull, fermi,
       [] { return plan_of(workloads::enterprise_specs()); }},
      // Batching-threshold sweep points (Figure 3 regime): the same
      // enterprise kernel consolidated at increasing batch sizes.
      {"tesla-threshold-2", 0x0997703274a19a07ull, tesla,
       [] { return replicated(workloads::encryption_12k(), 2); }},
      {"tesla-threshold-8", 0x86f78a9071873343ull, tesla,
       [] { return replicated(workloads::encryption_12k(), 8); }},
      {"tesla-threshold-32", 0xd7296b86a6029cc3ull, tesla,
       [] { return replicated(workloads::encryption_12k(), 32); }},
      // Constant-data reuse (the h2d dedup path) over a hetero mix.
      {"tesla-reuse-constants", 0x7f812d9716d1daa7ull, tesla,
       [] {
         auto plan = plan_of({workloads::encryption_12k(),
                              workloads::encryption_12k(),
                              workloads::sorting_6k(),
                              workloads::search_10k()});
         plan.reuse_constant_data = true;
         return plan;
       }},
  };
}

TEST(GoldenDigests, FixturesReproduceOnBothPaths) {
  const char* out_path = std::getenv("EWC_GOLDEN_OUT");
  std::ofstream out;
  if (out_path != nullptr) out.open(out_path, std::ios::app);

  for (const auto& f : fixtures()) {
    const auto engine = f.engine();
    const auto plan = f.plan();
    const PathDigests got = run_both(engine, plan);
    if (out.is_open()) {
      char line[96];
      std::snprintf(line, sizeof line, "%s 0x%016llx\n", f.name,
                    static_cast<unsigned long long>(got.scalar));
      out << line;
    }
    EXPECT_EQ(got.scalar, got.simd)
        << "SIMD path diverged from scalar reference on fixture '" << f.name
        << "'\nrepro: " << describe_plan(engine.device(), plan);
    EXPECT_EQ(got.scalar, f.expected)
        << "golden digest mismatch on fixture '" << f.name << "': got 0x"
        << std::hex << got.scalar << ", expected 0x" << f.expected
        << std::dec << "\nrepro: " << describe_plan(engine.device(), plan)
        << "\nIf the numeric change is intentional, update the digest in "
           "tests/golden_test.cpp (policy: docs/SIMULATOR.md).";
  }
}

// ---- differential fuzz -----------------------------------------------------

gpusim::KernelDesc fuzz_kernel(common::Rng& rng, int index) {
  gpusim::KernelDesc k;
  k.name = "fuzz" + std::to_string(static_cast<int>(rng.uniform_int(0, 3)));
  k.num_blocks = static_cast<int>(rng.uniform_int(0, 70));
  k.threads_per_block = static_cast<int>(rng.uniform_int(1, 8)) * 32;
  k.mix.fp_insts = rng.uniform(0.0, 2.0e5);
  k.mix.int_insts = rng.uniform(0.0, 1.0e5);
  k.mix.sfu_insts = rng.uniform(0.0, 2.0e4);
  k.mix.coalesced_mem_insts = rng.uniform(0.0, 2.0e4);
  k.mix.uncoalesced_mem_insts = rng.uniform(0.0, 800.0);
  k.mix.shared_accesses = rng.uniform(0.0, 5.0e4);
  k.mix.const_accesses = rng.uniform(0.0, 5.0e4);
  k.mix.sync_insts = rng.uniform(0.0, 300.0);
  k.resources.registers_per_thread = static_cast<int>(rng.uniform_int(8, 32));
  k.resources.shared_mem_per_block = rng.uniform_int(0, 8) * 1024;
  if (rng.uniform(0.0, 1.0) < 0.3) {
    k.resources.constant_data = common::Bytes::from_bytes(
        static_cast<double>(rng.uniform_int(1, 16)) * 1024.0);
  }
  k.h2d_bytes = common::Bytes::from_bytes(rng.uniform(0.0, 1.0e6));
  k.d2h_bytes = common::Bytes::from_bytes(rng.uniform(0.0, 1.0e6));
  if (rng.uniform(0.0, 1.0) < 0.2) k.mlp = rng.uniform(1.0, 8.0);
  // Zero-work corner cases stay in the pool: blocks whose demands are all
  // zero exercise the dt == 0 retire path.
  if (rng.uniform(0.0, 1.0) < 0.1) {
    k.mix = gpusim::InstructionMix{};
  }
  (void)index;
  return k;
}

/// Randomized device: varied SM counts, residency caps, and a DRAM
/// bandwidth squeeze that forces mem_scale < 1 (the saturated regime).
gpusim::DeviceConfig fuzz_device(common::Rng& rng) {
  gpusim::DeviceConfig dev = gpusim::tesla_c1060();
  dev.num_sms = static_cast<int>(rng.uniform_int(1, 30));
  dev.max_blocks_per_sm = static_cast<int>(rng.uniform_int(1, 8));
  const double squeeze[] = {0.1, 0.5, 1.0};
  dev.dram_bandwidth = common::Bandwidth::from_bytes_per_second(
      dev.dram_bandwidth.bytes_per_second() *
      squeeze[rng.uniform_int(0, 2)]);
  const gpusim::DispatchPolicy policies[] = {
      gpusim::DispatchPolicy::kRoundRobin,
      gpusim::DispatchPolicy::kLeastLoadedWarps,
      gpusim::DispatchPolicy::kRandom};
  dev.dispatch_policy = policies[rng.uniform_int(0, 2)];
  dev.dispatch_seed = rng.uniform_int(1, 1 << 20);
  return dev;
}

/// Shrink a fuzzed kernel's blocks until one fits an empty SM of `dev`, so
/// FluidEngine::run accepts it.
void shrink_to_fit(gpusim::KernelDesc& k, const gpusim::DeviceConfig& dev) {
  while (k.num_blocks > 0 && !k.block_fits_empty_sm(dev)) {
    k.threads_per_block -= 32;
    if (k.threads_per_block <= 0) {
      k.threads_per_block = 32;
      k.resources.shared_mem_per_block = 0;
      k.resources.registers_per_thread = 8;
    }
  }
}

class DifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialFuzz, SimdBitIdenticalToScalar) {
  if (!gpusim::simd_compiled_in()) {
    GTEST_SKIP() << "EWC_SIMD=OFF build: only the scalar path exists";
  }
  // 8 shards x 128 seeds = 1024 randomized plans.
  const int shard = GetParam();
  for (int i = 0; i < 128; ++i) {
    const std::uint64_t seed =
        0x90ddull + static_cast<std::uint64_t>(shard) * 128 + i;
    common::Rng rng(seed);
    const gpusim::DeviceConfig dev = fuzz_device(rng);
    gpusim::FluidEngine engine(dev);
    gpusim::LaunchPlan plan;
    plan.reuse_constant_data = rng.uniform(0.0, 1.0) < 0.5;
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 5));
    for (int j = 0; j < n; ++j) {
      gpusim::KernelInstance inst;
      inst.desc = fuzz_kernel(rng, j);
      shrink_to_fit(inst.desc, dev);
      inst.instance_id = j;
      plan.instances.push_back(std::move(inst));
    }
    const PathDigests got = run_both(engine, plan);
    ASSERT_EQ(got.scalar, got.simd)
        << "SIMD/scalar divergence at fuzz seed " << seed
        << "\nrepro: " << describe_plan(dev, plan);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, DifferentialFuzz, ::testing::Range(0, 8));

// ---- consolidation-model prediction digests --------------------------------

void digest_prediction(Fnv1a& d, const perf::ConsolidationPrediction& p) {
  d.i64(static_cast<std::int64_t>(p.type));
  d.f64(p.kernel_time.seconds());
  d.f64(p.h2d_time.seconds());
  d.f64(p.d2h_time.seconds());
  d.f64(p.total_time.seconds());
  d.f64(p.execution_cycles);
  d.i64(p.critical_sm);
  d.u64(p.critical_sm_blocks.size());
  for (int b : p.critical_sm_blocks) d.i64(b);
  d.u64(p.per_instance.size());
  for (const auto& inst : p.per_instance) {
    d.i64(inst.instance_id);
    d.str(inst.kernel_name);
    d.f64(inst.kernel_time.seconds());
  }
}

/// One plan of the ~1k-plan corpus on its randomized device. Unlike the
/// engine fuzzer, kernels are NOT shrunk to fit: a tenth get a shared-memory
/// footprint larger than any SM, so every one of their blocks takes the
/// overflow path.
struct CorpusCase {
  gpusim::DeviceConfig dev;
  gpusim::LaunchPlan plan;
};

constexpr int kCorpusSize = 1000;

CorpusCase corpus_case(int i) {
  common::Rng rng(0x9e3dull + static_cast<std::uint64_t>(i));
  CorpusCase c{fuzz_device(rng), {}};
  c.plan.reuse_constant_data = rng.uniform(0.0, 1.0) < 0.5;
  const int n = 1 + static_cast<int>(rng.uniform_int(0, 7));
  for (int j = 0; j < n; ++j) {
    gpusim::KernelInstance inst;
    inst.desc = fuzz_kernel(rng, j);
    if (rng.uniform(0.0, 1.0) < 0.1) {
      inst.desc.resources.shared_mem_per_block =
          c.dev.shared_mem_per_sm + 1024;
    }
    inst.instance_id = j;
    c.plan.instances.push_back(std::move(inst));
  }
  return c;
}

/// The corpus predicted in sequence into one digest.
std::uint64_t prediction_corpus_digest() {
  Fnv1a d;
  for (int i = 0; i < kCorpusSize; ++i) {
    const CorpusCase c = corpus_case(i);
    digest_prediction(d, perf::ConsolidationModel(c.dev).predict(c.plan));
  }
  return d.value();
}

struct PredictionFixture {
  const char* name;
  std::uint64_t expected;
  std::function<std::uint64_t()> digest;
};

std::uint64_t predict_digest(const gpusim::LaunchPlan& plan) {
  Fnv1a d;
  digest_prediction(d, perf::ConsolidationModel().predict(plan));
  return d.value();
}

std::vector<PredictionFixture> prediction_fixtures() {
  return {
      // One kmeans request, and the 16-request kmeans_500 batch: 1024
      // blocks each at 2 resident per SM, so nearly all blocks overflow.
      {"predict-kmeans-1", 0x241caa90843ac7b4ull,
       [] { return predict_digest(replicated(workloads::kmeans_256k(), 1)); }},
      {"predict-kmeans-16", 0x03acf5fe747a276bull,
       [] { return predict_digest(replicated(workloads::kmeans_256k(), 16)); }},
      // The bursty_mix/fleet_5k batch: 16 requests, encryption_6k and
      // sorting_6k 2:1.
      {"predict-enc6k-sort6k-16", 0x1bdfee7e967cd373ull,
       [] {
         std::vector<workloads::InstanceSpec> specs;
         for (int i = 0; i < 16; ++i) {
           specs.push_back(i % 3 == 2 ? workloads::sorting_6k()
                                      : workloads::encryption_6k());
         }
         return predict_digest(plan_of(specs));
       }},
      {"predict-scenario1", 0x9497ab495de61a2dull,
       [] {
         return predict_digest(plan_of({workloads::scenario1_montecarlo(),
                                        workloads::scenario1_encryption()}));
       }},
      {"predict-scenario2", 0xc51d8aa8feec7d44ull,
       [] {
         return predict_digest(plan_of({workloads::scenario2_blackscholes(),
                                        workloads::scenario2_search()}));
       }},
      {"predict-table1-mix", 0x03930e556bf2e98dull,
       [] { return predict_digest(plan_of(workloads::table1_specs())); }},
      {"predict-corpus-1000", 0x487b77f7aa1fb24bull,
       prediction_corpus_digest},
  };
}

TEST(GoldenDigests, PredictionsReproduce) {
  const char* out_path = std::getenv("EWC_GOLDEN_OUT");
  std::ofstream out;
  if (out_path != nullptr) out.open(out_path, std::ios::app);

  for (const auto& f : prediction_fixtures()) {
    const std::uint64_t got = f.digest();
    if (out.is_open()) {
      char line[96];
      std::snprintf(line, sizeof line, "%s 0x%016llx\n", f.name,
                    static_cast<unsigned long long>(got));
      out << line;
    }
    EXPECT_EQ(got, f.expected)
        << "prediction digest mismatch on '" << f.name << "': got 0x"
        << std::hex << got << ", expected 0x" << f.expected << std::dec
        << "\nIf the numeric change is intentional, update the digest in "
           "tests/golden_test.cpp.";
  }
}

// ---- instance-id independence ---------------------------------------------

/// `plan` with ids `1000 + 7*(n-1-i)`: distinct, far from 0..n-1, and
/// descending in plan order.
gpusim::LaunchPlan remapped_ids(gpusim::LaunchPlan plan) {
  const int n = static_cast<int>(plan.instances.size());
  for (int i = 0; i < n; ++i) {
    plan.instances[static_cast<std::size_t>(i)].instance_id =
        1000 + 7 * (n - 1 - i);
  }
  return plan;
}

gpusim::LaunchPlan sequential_ids(gpusim::LaunchPlan plan) {
  int id = 0;
  for (auto& inst : plan.instances) inst.instance_id = id++;
  return plan;
}

/// Each instance's finish time, by its position in `plan`.
std::vector<double> finish_by_position(const gpusim::LaunchPlan& plan,
                                       const gpusim::RunResult& run) {
  std::vector<double> out(plan.instances.size(), -1.0);
  for (const auto& c : run.completions) {
    for (std::size_t i = 0; i < plan.instances.size(); ++i) {
      if (plan.instances[i].instance_id == c.instance_id) {
        out[i] = c.finish_time.seconds();
        break;
      }
    }
  }
  return out;
}

/// What a caller of FluidEngine::run reads back: totals and finish times by
/// plan position.
void digest_run_outcome(Fnv1a& d, const gpusim::LaunchPlan& plan,
                        const gpusim::RunResult& run) {
  d.f64(run.total_time.seconds());
  d.f64(run.system_energy.joules());
  const auto finish = finish_by_position(plan, run);
  d.u64(finish.size());
  for (double f : finish) d.f64(f);
}

/// Every ConsolidationPrediction field except the per-instance ids.
std::uint64_t id_free_prediction_digest(const perf::ConsolidationPrediction& p) {
  Fnv1a d;
  d.i64(static_cast<std::int64_t>(p.type));
  d.f64(p.kernel_time.seconds());
  d.f64(p.h2d_time.seconds());
  d.f64(p.d2h_time.seconds());
  d.f64(p.total_time.seconds());
  d.f64(p.execution_cycles);
  d.i64(p.critical_sm);
  d.u64(p.critical_sm_blocks.size());
  for (int b : p.critical_sm_blocks) d.i64(b);
  d.u64(p.per_instance.size());
  for (const auto& inst : p.per_instance) {
    d.str(inst.kernel_name);
    d.f64(inst.kernel_time.seconds());
  }
  return d.value();
}

/// Run and predict `plan` under ids 0..n-1 and under remapped ids, expect
/// bit-identical outcomes and predictions, and fold them into `d`.
void check_id_independence(Fnv1a& d, const gpusim::FluidEngine& engine,
                           const gpusim::LaunchPlan& plan,
                           const std::string& what) {
  const gpusim::LaunchPlan a = sequential_ids(plan);
  const gpusim::LaunchPlan b = remapped_ids(plan);
  const gpusim::RunResult ra = engine.run(a);
  const gpusim::RunResult rb = engine.run(b);
  EXPECT_EQ(ra.total_time.seconds(), rb.total_time.seconds()) << what;
  EXPECT_EQ(ra.system_energy.joules(), rb.system_energy.joules()) << what;
  EXPECT_EQ(finish_by_position(a, ra), finish_by_position(b, rb)) << what;
  digest_run_outcome(d, a, ra);
}

void check_prediction_id_independence(Fnv1a& d,
                                      const perf::ConsolidationModel& model,
                                      const gpusim::LaunchPlan& plan,
                                      const std::string& what) {
  const std::uint64_t pa =
      id_free_prediction_digest(model.predict(sequential_ids(plan)));
  const std::uint64_t pb =
      id_free_prediction_digest(model.predict(remapped_ids(plan)));
  EXPECT_EQ(pa, pb) << what;
  d.u64(pa);
}

TEST(GoldenDigests, InstanceIdsOnlyLabelCompletions) {
  const char* out_path = std::getenv("EWC_GOLDEN_OUT");
  std::ofstream out;
  if (out_path != nullptr) out.open(out_path, std::ios::app);

  Fnv1a d;
  for (const auto& f : fixtures()) {
    const auto engine = f.engine();
    const auto plan = f.plan();
    check_id_independence(d, engine, plan, f.name);
    check_prediction_id_independence(
        d, perf::ConsolidationModel(engine.device()), plan, f.name);
  }
  for (int i = 0; i < kCorpusSize; ++i) {
    CorpusCase c = corpus_case(i);
    const std::string what = "corpus plan " + std::to_string(i);
    check_prediction_id_independence(d, perf::ConsolidationModel(c.dev),
                                     c.plan, what);
    for (auto& inst : c.plan.instances) shrink_to_fit(inst.desc, c.dev);
    check_id_independence(d, gpusim::FluidEngine(c.dev), c.plan, what);
  }

  constexpr std::uint64_t kExpected = 0x22121442cdc373d3ull;
  if (out.is_open()) {
    char line[96];
    std::snprintf(line, sizeof line, "id-independence 0x%016llx\n",
                  static_cast<unsigned long long>(d.value()));
    out << line;
  }
  EXPECT_EQ(d.value(), kExpected)
      << "id-independence digest mismatch: got 0x" << std::hex << d.value()
      << ", expected 0x" << kExpected << std::dec
      << "\nIf the numeric change is intentional, update the digest in "
         "tests/golden_test.cpp.";
}

// ---- the decision's energy ledger -------------------------------------------

/// Evaluate `plan` on `dev` with CPU profiles drawn from a stream of its own
/// (none for every third case, so the CPU is sometimes infeasible), and
/// check the model-based choice: a feasible estimate with the least charge,
/// never consolidation on a tie.
void check_least_charge(const gpusim::DeviceConfig& dev,
                        const gpusim::EnergyConfig& energy,
                        const power::GpuPowerModel& model,
                        const gpusim::LaunchPlan& plan, int index,
                        const std::string& what) {
  SCOPED_TRACE(what);
  const consolidate::DecisionEngine engine(dev, model, cpusim::CpuConfig{},
                                           consolidate::FrameworkCosts{},
                                           energy);
  common::Rng rng(0xc9aull + static_cast<std::uint64_t>(index));
  std::vector<std::optional<cpusim::CpuTask>> profiles;
  std::vector<std::size_t> staged;
  const std::vector<int> messages(plan.instances.size(), 4);
  for (const auto& inst : plan.instances) {
    staged.push_back(static_cast<std::size_t>(inst.desc.h2d_bytes.bytes()));
    if (index % 3 == 2) {
      profiles.emplace_back(std::nullopt);
      continue;
    }
    cpusim::CpuTask task;
    task.name = inst.desc.name;
    task.core_seconds = rng.uniform(0.01, 4.0);
    task.threads = static_cast<int>(rng.uniform_int(1, 8));
    task.cache_sensitivity = rng.uniform(0.0, 1.0);
    task.instance_id = inst.instance_id;
    profiles.emplace_back(std::move(task));
  }
  const common::Duration overhead = engine.overhead(
      plan.instances, staged, messages, consolidate::Optimizations{});
  const consolidate::Decision d = engine.evaluate(plan, profiles, overhead);
  const consolidate::AlternativeEstimate& chosen = d.chosen_estimate();
  ASSERT_TRUE(chosen.feasible);
  // Every alternative pays the node's idle draw through the overhead.
  const common::Energy overhead_charge =
      energy.system_idle_with_gpu * overhead;
  for (const auto& e : d.estimates) {
    if (!e.feasible) continue;
    EXPECT_GE(e.charge.joules(), overhead_charge.joules())
        << consolidate::alternative_name(e.which);
    EXPECT_LE(chosen.charge.joules(), e.charge.joules())
        << consolidate::alternative_name(e.which);
    if (e.which != consolidate::Alternative::kConsolidatedGpu &&
        e.charge == chosen.charge) {
      EXPECT_NE(d.chosen, consolidate::Alternative::kConsolidatedGpu);
    }
  }
}

TEST(DecisionLedger, ChosenChargeIsTheLeastOverFixturesAndCorpus) {
  const gpusim::FluidEngine tesla;
  const power::GpuPowerModel tesla_model = power::default_device_model();
  int index = 0;
  for (const auto& f : fixtures()) {
    const auto engine = f.engine();
    const power::GpuPowerModel model =
        power::ModelTrainer(engine)
            .train(workloads::rodinia_training_kernels())
            .model;
    check_least_charge(engine.device(), engine.energy_config(), model,
                       f.plan(), index++, f.name);
  }
  for (int i = 0; i < kCorpusSize; ++i) {
    const CorpusCase c = corpus_case(i);
    check_least_charge(c.dev, tesla.energy_config(), tesla_model, c.plan, i,
                       "corpus plan " + std::to_string(i));
  }
}

// ---- the pinned default-device power model ---------------------------------

/// Every number a GpuPowerModel predicts from, in a fixed order.
std::vector<double> model_numbers(const power::GpuPowerModel& m) {
  std::vector<double> v = m.fit().coefficients;
  v.push_back(m.fit().intercept);
  v.push_back(m.fit().r_squared);
  v.push_back(m.idle_power().watts());
  v.push_back(m.thermal().kelvin_per_dyn_watt);
  v.push_back(m.thermal().watts_per_kelvin);
  v.push_back(m.transfer_power().watts());
  return v;
}

std::string hex_float(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// The body of power::default_device_model() that pins `m`.
std::string pinned_source(const power::GpuPowerModel& m) {
  std::ostringstream os;
  os << "  fit.coefficients = {";
  for (std::size_t i = 0; i < m.fit().coefficients.size(); ++i) {
    os << (i ? ", " : "") << hex_float(m.fit().coefficients[i]);
  }
  os << "};\n  fit.intercept = " << hex_float(m.fit().intercept)
     << ";\n  fit.r_squared = " << hex_float(m.fit().r_squared)
     << ";\n  return GpuPowerModel(std::move(fit), Power::from_watts("
     << hex_float(m.idle_power().watts()) << "),\n      ThermalFit{"
     << hex_float(m.thermal().kelvin_per_dyn_watt) << ", "
     << hex_float(m.thermal().watts_per_kelvin)
     << "},\n      Power::from_watts(" << hex_float(m.transfer_power().watts())
     << "), gpusim::tesla_c1060());\n";
  return os.str();
}

// The daemon, the CLI and most tests use the pinned model instead of
// training; it must be exactly what training on the default node gives, in
// every build flavour (the CI golden job runs this in all three).
TEST(PinnedDefaultModel, EqualsAFreshTrainingBitForBit) {
  const gpusim::FluidEngine engine;
  const power::GpuPowerModel trained =
      power::ModelTrainer(engine)
          .train(workloads::rodinia_training_kernels())
          .model;
  const std::vector<double> want = model_numbers(trained);
  const std::vector<double> got =
      model_numbers(power::default_device_model());
  bool same = want.size() == got.size();
  for (std::size_t i = 0; same && i < want.size(); ++i) {
    same = std::bit_cast<std::uint64_t>(want[i]) ==
           std::bit_cast<std::uint64_t>(got[i]);
  }
  EXPECT_TRUE(same)
      << "power::default_device_model() differs from a fresh training on "
         "the default node; if the change is intended, its body in "
         "src/power/default_model.cpp becomes:\n"
      << pinned_source(trained);
}

// ---- the pinned reference seconds of the first-principles workloads --------

// kmeans_256k, sha256_64k and compression_64m report a single instance's GPU
// time on the default node as a constant (`ewcsim list`,
// bench_enterprise_mix); each must be exactly what a run gives.
TEST(PinnedReferenceSeconds, EqualAFreshRunBitForBit) {
  const gpusim::FluidEngine engine;
  const std::pair<const char*, workloads::InstanceSpec> specs[] = {
      {"kmeans_256k", workloads::kmeans_256k()},
      {"sha256_64k", workloads::sha256_64k()},
      {"compression_64m", workloads::compression_64m()}};
  for (const auto& [factory, spec] : specs) {
    gpusim::LaunchPlan plan;
    plan.instances.push_back(gpusim::KernelInstance{spec.gpu, 0, ""});
    const double run = engine.run(plan).total_time.seconds();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(run),
              std::bit_cast<std::uint64_t>(spec.paper_gpu_seconds))
        << factory << "()'s pinned GPU seconds differ from a fresh run on "
           "the default node; if the change is intended, its "
           "first_principles_spec argument in "
           "src/workloads/paper_configs.cpp becomes "
        << hex_float(run);
  }
}

}  // namespace
}  // namespace ewc
