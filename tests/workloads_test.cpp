// Functional and descriptor tests for the workload modules.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "cpusim/engine.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/sim_cache.hpp"
#include "perf/analytic.hpp"
#include "workloads/aes.hpp"
#include "workloads/blackscholes.hpp"
#include "workloads/montecarlo.hpp"
#include "workloads/paper_configs.hpp"
#include "workloads/registry.hpp"
#include "workloads/rodinia_like.hpp"
#include "workloads/search.hpp"
#include "workloads/sort.hpp"

namespace ewc::workloads {
namespace {

// ---------------- AES functional (FIPS-197) ----------------

TEST(Aes, Fips197AppendixBVector) {
  // FIPS-197 Appendix B: plaintext 3243f6a8885a308d313198a2e0370734,
  // key 2b7e151628aed2a6abf7158809cf4f3c
  AesKey key{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
             0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  AesBlock block{0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  AesBlock expect{0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
                  0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32};
  auto ks = aes128_expand_key(key);
  aes128_encrypt_block(ks, block);
  EXPECT_EQ(block, expect);
}

TEST(Aes, EncryptDecryptRoundTrip) {
  AesKey key{};
  for (int i = 0; i < 16; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i * 7);
  std::vector<std::uint8_t> data(12 * 1024);
  common::Rng rng(5);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  auto cipher = aes128_encrypt_ecb(data, key);
  EXPECT_NE(cipher, data);
  auto plain = aes128_decrypt_ecb(cipher, key);
  EXPECT_EQ(plain, data);
}

TEST(Aes, BlockDecryptInverts) {
  AesKey key{};
  key[0] = 0x42;
  auto ks = aes128_expand_key(key);
  AesBlock b{};
  for (int i = 0; i < 16; ++i) b[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(255 - i);
  AesBlock orig = b;
  aes128_encrypt_block(ks, b);
  aes128_decrypt_block(ks, b);
  EXPECT_EQ(b, orig);
}

TEST(Aes, RejectsUnalignedSize) {
  AesKey key{};
  std::vector<std::uint8_t> data(17);
  EXPECT_THROW(aes128_encrypt_ecb(data, key), std::invalid_argument);
  EXPECT_THROW(aes128_decrypt_ecb(data, key), std::invalid_argument);
}

TEST(Aes, KeySensitivity) {
  AesKey k1{}, k2{};
  k2[15] = 1;
  std::vector<std::uint8_t> data(64, 0xAA);
  EXPECT_NE(aes128_encrypt_ecb(data, k1), aes128_encrypt_ecb(data, k2));
}

TEST(Aes, KernelDescMatchesTable1) {
  AesParams p12;  // 12 KB @ 256 threads -> 3 blocks
  auto k12 = aes_kernel_desc(p12);
  EXPECT_EQ(k12.num_blocks, 3);
  EXPECT_EQ(k12.threads_per_block, 256);
  AesParams p6;
  p6.input_bytes = 6 * 1024;
  p6.threads_per_block = 128;
  auto k6 = aes_kernel_desc(p6);
  EXPECT_EQ(k6.num_blocks, 3);
  EXPECT_EQ(k6.threads_per_block, 128);
}

TEST(Aes, StreamingVariantIsBandwidthHungry) {
  gpusim::DeviceConfig dev;
  AesParams p;
  p.streaming = true;
  auto stream = aes_kernel_desc(p);
  p.streaming = false;
  auto lookup = aes_kernel_desc(p);
  EXPECT_GT(stream.coalesced_fraction(), lookup.coalesced_fraction());
  EXPECT_GT(stream.dram_efficiency(dev), lookup.dram_efficiency(dev));
}

// ---------------- sorting ----------------

TEST(Sort, SortsRandomData) {
  common::Rng rng(9);
  std::vector<std::uint32_t> data(6 * 1024);
  for (auto& v : data) v = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30));
  auto sorted = bitonic_sorted(data);
  ASSERT_EQ(sorted.size(), data.size());
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  // Same multiset.
  std::sort(data.begin(), data.end());
  EXPECT_EQ(sorted, data);
}

TEST(Sort, HandlesNonPowerOfTwo) {
  std::vector<std::uint32_t> data{5, 3, 9, 1, 7};
  bitonic_sort(data);
  EXPECT_EQ(data, (std::vector<std::uint32_t>{1, 3, 5, 7, 9}));
}

TEST(Sort, HandlesEdgeSizes) {
  std::vector<std::uint32_t> empty;
  bitonic_sort(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<std::uint32_t> one{42};
  bitonic_sort(one);
  EXPECT_EQ(one[0], 42u);
  std::vector<std::uint32_t> dup(100, 7);
  bitonic_sort(dup);
  EXPECT_TRUE(std::all_of(dup.begin(), dup.end(), [](auto v) { return v == 7; }));
}

TEST(Sort, MaxValuesSurvivePadding) {
  // Padding uses UINT32_MAX; real max values must not be dropped.
  std::vector<std::uint32_t> data{0xFFFFFFFFu, 1u, 0xFFFFFFFFu};
  bitonic_sort(data);
  EXPECT_EQ(data, (std::vector<std::uint32_t>{1u, 0xFFFFFFFFu, 0xFFFFFFFFu}));
}

TEST(Sort, KernelDescIsBarrierHeavy) {
  SortParams p;
  auto k = sort_kernel_desc(p);
  EXPECT_GT(k.mix.sync_insts, 10.0);
  EXPECT_GT(k.mix.shared_accesses, k.mix.coalesced_mem_insts);
}

class SortProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SortProperty, SortedAndPermutation) {
  common::Rng rng(GetParam());
  std::vector<std::uint32_t> data(GetParam());
  for (auto& v : data) v = static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
  auto ref = data;
  std::sort(ref.begin(), ref.end());
  bitonic_sort(data);
  EXPECT_EQ(data, ref);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SortProperty,
                         ::testing::Values(2, 3, 15, 16, 17, 100, 1000, 4097));

// ---------------- search ----------------

TEST(Search, CountsOverlappingMatches) {
  EXPECT_EQ(count_matches("aaaa", "aa"), 3u);
  EXPECT_EQ(count_matches("hello world hello", "hello"), 2u);
  EXPECT_EQ(count_matches("abc", "xyz"), 0u);
  EXPECT_EQ(count_matches("abc", ""), 0u);
  EXPECT_EQ(count_matches("ab", "abc"), 0u);
}

TEST(Search, KernelDescMatchesTable1) {
  SearchParams p;  // 10 K @ 256 threads x 4 B -> 10 blocks
  auto k = search_kernel_desc(p);
  EXPECT_EQ(k.num_blocks, 10);
  EXPECT_GT(k.mix.coalesced_mem_insts, 0.0);
  EXPECT_EQ(k.mix.uncoalesced_mem_insts, 0.0);
}

// ---------------- BlackScholes ----------------

TEST(BlackScholes, PutCallParity) {
  OptionInput opt{100.0, 95.0, 0.5};
  const double r = 0.02;
  auto p = black_scholes(opt, r, 0.3);
  // C - P = S - K e^{-rT}
  EXPECT_NEAR(p.call - p.put, opt.spot - opt.strike * std::exp(-r * opt.years),
              1e-9);
}

TEST(BlackScholes, DeepInTheMoneyCallNearIntrinsic) {
  OptionInput opt{200.0, 50.0, 0.1};
  auto p = black_scholes(opt, 0.02, 0.2);
  EXPECT_NEAR(p.call, 200.0 - 50.0 * std::exp(-0.02 * 0.1), 0.01);
  EXPECT_NEAR(p.put, 0.0, 1e-6);
}

TEST(BlackScholes, PricesArePositiveAndMonotoneInVol) {
  OptionInput opt{100.0, 100.0, 1.0};
  auto lo = black_scholes(opt, 0.02, 0.1);
  auto hi = black_scholes(opt, 0.02, 0.5);
  EXPECT_GT(lo.call, 0.0);
  EXPECT_GT(hi.call, lo.call);
  EXPECT_GT(hi.put, lo.put);
}

TEST(BlackScholes, RejectsBadInputs) {
  EXPECT_THROW(black_scholes({-1.0, 100.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(black_scholes({100.0, 0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(black_scholes({100.0, 100.0, -0.5}), std::invalid_argument);
}

TEST(BlackScholes, BatchMatchesScalar) {
  std::vector<OptionInput> opts{{100, 90, 0.5}, {80, 100, 2.0}};
  auto batch = black_scholes_batch(opts);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_DOUBLE_EQ(batch[0].call, black_scholes(opts[0]).call);
  EXPECT_DOUBLE_EQ(batch[1].put, black_scholes(opts[1]).put);
}

TEST(BlackScholes, KernelIsComputeBound) {
  BlackScholesParams p;
  p.num_blocks = 45;
  p.num_options = 45 * 256;
  auto k = blackscholes_kernel_desc(p);
  EXPECT_GT(k.mix.fp_insts, 10.0 * k.mix.mem_insts());
  EXPECT_GT(k.mix.sfu_insts, 0.0);
}

// ---------------- MonteCarlo ----------------

TEST(MonteCarlo, ConvergesToBlackScholes) {
  // With many paths the MC estimate approaches the closed form.
  OptionInput opt{100.0, 100.0, 1.0};
  const double r = 0.02, sigma = 0.3;
  auto bs = black_scholes(opt, r, sigma);
  auto mc = monte_carlo_call_price(100.0, 100.0, 1.0, r, sigma, 20000, 16, 7);
  EXPECT_NEAR(mc.price, bs.call, 4.0 * mc.std_error + 0.05);
  EXPECT_GT(mc.std_error, 0.0);
}

TEST(MonteCarlo, DeterministicForSeed) {
  auto a = monte_carlo_call_price(100, 100, 1, 0.02, 0.3, 1000, 8, 11);
  auto b = monte_carlo_call_price(100, 100, 1, 0.02, 0.3, 1000, 8, 11);
  EXPECT_DOUBLE_EQ(a.price, b.price);
}

TEST(MonteCarlo, RejectsBadInputs) {
  EXPECT_THROW(monte_carlo_call_price(0, 100, 1, 0.02, 0.3, 100, 8),
               std::invalid_argument);
  EXPECT_THROW(monte_carlo_call_price(100, 100, 1, 0.02, 0.3, 0, 8),
               std::invalid_argument);
}

TEST(MonteCarlo, VariantsHaveOppositeBoundedness) {
  gpusim::DeviceConfig dev;
  MonteCarloParams p;
  p.num_blocks = 45;
  p.state_in_global = false;
  auto compute = montecarlo_kernel_desc(p);
  p.state_in_global = true;
  auto memory = montecarlo_kernel_desc(p);
  // Compute variant: arithmetic dominates; memory variant: DRAM dominates.
  EXPECT_GT(compute.mix.compute_insts(), 100.0 * compute.mix.mem_insts());
  EXPECT_GT(memory.warp_mem_bytes(dev), 10.0 * compute.warp_mem_bytes(dev));
  EXPECT_NE(compute.name, memory.name);  // distinct kernels for templates
}

// ---------------- Rodinia training kernels ----------------

TEST(Rodinia, TenKernelsSpanningFeatureSpace) {
  auto ks = rodinia_training_kernels();
  ASSERT_EQ(ks.size(), 10u);
  bool has_sfu = false, has_uncoal = false, has_shared = false,
       has_const = false;
  for (const auto& k : ks) {
    EXPECT_GT(k.num_blocks, 0);
    EXPECT_TRUE(k.block_fits_empty_sm(gpusim::DeviceConfig{}));
    has_sfu |= k.mix.sfu_insts > 0;
    has_uncoal |= k.mix.uncoalesced_mem_insts > 0;
    has_shared |= k.mix.shared_accesses > 0;
    has_const |= k.mix.const_accesses > 0;
  }
  EXPECT_TRUE(has_sfu && has_uncoal && has_shared && has_const);
}

TEST(Rodinia, KernelsRunLongEnoughForTheMeter) {
  gpusim::FluidEngine engine;
  for (const auto& k : rodinia_training_kernels()) {
    gpusim::LaunchPlan p;
    p.instances.push_back(gpusim::KernelInstance{k, 0, ""});
    auto r = engine.run(p);
    EXPECT_GT(r.kernel_time.seconds(), 1.0) << k.name;
  }
}

// ---------------- registry ----------------

TEST(Registry, RegistersFiveKernels) {
  cudart::KernelRegistry reg;
  register_paper_kernels(reg);
  for (const char* name :
       {"aes_encrypt", "bitonic_sort", "search", "blackscholes", "montecarlo"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
}

TEST(Registry, FactoryHonoursLaunchConfigAndArgs) {
  cudart::KernelRegistry reg;
  register_paper_kernels(reg);
  cudart::LaunchConfig cfg;
  cfg.grid = {7, 1, 1};
  cfg.block = {128, 1, 1};
  cfg.valid = true;
  AesArgs args;
  args.input_bytes = 6 * 1024;
  args.iterations = 3.0;
  std::vector<std::byte> raw(sizeof args);
  std::memcpy(raw.data(), &args, sizeof args);
  auto k = reg.instantiate("aes_encrypt", cfg, raw);
  EXPECT_EQ(k.num_blocks, 7);
  EXPECT_EQ(k.threads_per_block, 128);
  EXPECT_NEAR(k.h2d_bytes.bytes(), 6.0 * 1024, 1e-9);
}

TEST(Registry, TruncatedArgsRejected) {
  cudart::KernelRegistry reg;
  register_paper_kernels(reg);
  cudart::LaunchConfig cfg;
  cfg.valid = true;
  cfg.grid = {1, 1, 1};
  cfg.block = {64, 1, 1};
  std::vector<std::byte> raw(3);  // way too small
  EXPECT_THROW(reg.instantiate("aes_encrypt", cfg, raw),
               std::invalid_argument);
}

TEST(Registry, EmptyArgsUseDefaults) {
  cudart::KernelRegistry reg;
  register_paper_kernels(reg);
  cudart::LaunchConfig cfg;  // invalid: defaults apply
  auto k = reg.instantiate("bitonic_sort", cfg, {});
  EXPECT_GT(k.num_blocks, 0);
}

// ---------------- paper configs / calibration ----------------

TEST(PaperConfigs, CalibrationHitsTargets) {
  gpusim::FluidEngine engine;
  for (const auto& spec :
       {encryption_12k(), sorting_6k(), t56_search(), t56_blackscholes(),
        t78_encryption(), t78_montecarlo(), scenario1_montecarlo(),
        scenario2_search()}) {
    gpusim::LaunchPlan p;
    p.instances.push_back(gpusim::KernelInstance{spec.gpu, 0, ""});
    auto r = engine.run(p);
    EXPECT_LT(std::abs(r.total_time.seconds() - spec.paper_gpu_seconds) /
                  spec.paper_gpu_seconds,
              0.08)
        << spec.name << " measured " << r.total_time.seconds() << " target "
        << spec.paper_gpu_seconds;
  }
}

TEST(PaperConfigs, CpuCalibrationExact) {
  cpusim::CpuEngine cpu;
  for (const auto& spec : {encryption_12k(), t56_search(), t78_montecarlo()}) {
    auto r = cpu.run({spec.cpu});
    EXPECT_NEAR(r.makespan.seconds(), spec.paper_cpu_seconds,
                1e-6 * spec.paper_cpu_seconds)
        << spec.name;
  }
}

TEST(PaperConfigs, Table1GridShapes) {
  auto specs = table1_specs();
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].gpu.num_blocks, 3);   // encryption 12K
  EXPECT_EQ(specs[1].gpu.num_blocks, 3);   // encryption 6K
  EXPECT_EQ(specs[2].gpu.num_blocks, 6);   // sorting
  EXPECT_EQ(specs[3].gpu.num_blocks, 10);  // search
  EXPECT_EQ(specs[4].gpu.num_blocks, 1);   // blackscholes
  EXPECT_EQ(specs[5].gpu.num_blocks, 1);   // montecarlo
  EXPECT_EQ(specs[5].gpu.threads_per_block, 128);
}

TEST(PaperConfigs, Table1SpeedupsMatchPaperDirection) {
  // Table 1's GPU-speedup-over-CPU column: <1 for enc/search, >1 for
  // sort/BS/MC.
  gpusim::FluidEngine engine;
  cpusim::CpuEngine cpu;
  auto speedup = [&](const InstanceSpec& s) {
    gpusim::LaunchPlan p;
    p.instances.push_back(gpusim::KernelInstance{s.gpu, 0, ""});
    const double gpu = engine.run(p).total_time.seconds();
    const double host = cpu.run({s.cpu}).makespan.seconds();
    return host / gpu;
  };
  EXPECT_LT(speedup(encryption_12k()), 1.0);
  EXPECT_LT(speedup(encryption_6k()), 1.0);
  EXPECT_GT(speedup(sorting_6k()), 1.0);
  EXPECT_LT(speedup(search_10k()), 1.0);
  EXPECT_GT(speedup(blackscholes_4096k()), 1.0);
  EXPECT_GT(speedup(montecarlo_500k()), 2.0);
}

TEST(PaperConfigs, InstanceHelpersAssignIds) {
  auto spec = encryption_12k();
  auto gpus = gpu_instances(spec, 3, 10);
  ASSERT_EQ(gpus.size(), 3u);
  EXPECT_EQ(gpus[0].instance_id, 10);
  EXPECT_EQ(gpus[2].instance_id, 12);
  auto cpus = cpu_tasks(spec, 2, 5);
  ASSERT_EQ(cpus.size(), 2u);
  EXPECT_EQ(cpus[1].instance_id, 6);
}

TEST(PaperConfigs, CalibrateGpuSecondsConverges) {
  gpusim::DeviceConfig dev;
  perf::AnalyticModel model(dev);
  AesParams p;
  auto k = calibrate_gpu_seconds(aes_kernel_desc(p), 5.0, dev);
  EXPECT_NEAR(model.predict(k).total_time.seconds(), 5.0, 0.05);
}

// ---------------- the named catalogue ----------------

/// Every field of `s`, doubles by their bits.
std::string spec_bits(const InstanceSpec& s) {
  std::string key = s.name + "|" + s.cpu.name + "|";
  gpusim::append_key(key, s.gpu);
  for (const double v : {s.cpu.core_seconds, s.cpu.cache_sensitivity,
                         s.paper_gpu_seconds, s.paper_cpu_seconds}) {
    gpusim::append_key(key, std::bit_cast<std::int64_t>(v));
  }
  gpusim::append_key(key, s.cpu.threads);
  gpusim::append_key(key, s.cpu.instance_id);
  return key;
}

TEST(WorkloadCatalogue, EveryNameResolvesToItsFactorysSpecBitForBit) {
  // The names `ewcsim` has always served, each with its factory.
  const std::vector<std::pair<std::string, InstanceSpec (*)()>> want = {
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
  const auto catalogue = workload_catalogue();
  ASSERT_EQ(catalogue.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto& [name, factory] = want[i];
    EXPECT_EQ(catalogue[i].name, name) << "catalogue is not sorted by name";
    const std::optional<InstanceSpec> found = find_workload(name);
    ASSERT_TRUE(found.has_value()) << name;
    EXPECT_EQ(spec_bits(*found), spec_bits(factory())) << name;
  }
  EXPECT_FALSE(find_workload("nope").has_value());
  EXPECT_FALSE(find_workload("encryption").has_value());  // a spec name
}

}  // namespace
}  // namespace ewc::workloads
