// Cache-correctness suite for the prediction/simulation memoization layer:
// a hit must be bit-identical to a fresh simulation, LRU must evict at
// capacity, and the decision engine must stay deterministic with the cache
// and the thread pool engaged. Carries the "sanitize" ctest label.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "consolidate/decision.hpp"
#include "consolidate/queue_sim.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/sim_cache.hpp"
#include "power/trainer.hpp"
#include "workloads/paper_configs.hpp"
#include "workloads/rodinia_like.hpp"

namespace ewc {
namespace {

gpusim::LaunchPlan two_kernel_plan() {
  gpusim::LaunchPlan plan;
  plan.instances.push_back(
      gpusim::KernelInstance{workloads::encryption_12k().gpu, 0, "alice"});
  plan.instances.push_back(
      gpusim::KernelInstance{workloads::sorting_6k().gpu, 1, "bob"});
  return plan;
}

// Field-for-field equality; EXPECT_EQ on doubles is bitwise-exact equality,
// which is precisely the cache's contract.
void expect_identical(const gpusim::RunResult& a, const gpusim::RunResult& b) {
  EXPECT_EQ(a.total_time.seconds(), b.total_time.seconds());
  EXPECT_EQ(a.kernel_time.seconds(), b.kernel_time.seconds());
  EXPECT_EQ(a.h2d_time.seconds(), b.h2d_time.seconds());
  EXPECT_EQ(a.d2h_time.seconds(), b.d2h_time.seconds());
  EXPECT_EQ(a.system_energy.joules(), b.system_energy.joules());
  EXPECT_EQ(a.avg_system_power.watts(), b.avg_system_power.watts());
  EXPECT_EQ(a.avg_temp_delta_kelvin, b.avg_temp_delta_kelvin);
  EXPECT_EQ(a.avg_dram_utilization, b.avg_dram_utilization);
  EXPECT_EQ(a.avg_sm_utilization, b.avg_sm_utilization);
  ASSERT_EQ(a.sm_stats.size(), b.sm_stats.size());
  for (std::size_t i = 0; i < a.sm_stats.size(); ++i) {
    EXPECT_EQ(a.sm_stats[i].busy.seconds(), b.sm_stats[i].busy.seconds());
    EXPECT_EQ(a.sm_stats[i].blocks_executed, b.sm_stats[i].blocks_executed);
    EXPECT_EQ(a.sm_stats[i].counts.total(), b.sm_stats[i].counts.total());
  }
  EXPECT_EQ(a.device_counts.total(), b.device_counts.total());
  ASSERT_EQ(a.power_segments.size(), b.power_segments.size());
  for (std::size_t i = 0; i < a.power_segments.size(); ++i) {
    EXPECT_EQ(a.power_segments[i].start.seconds(),
              b.power_segments[i].start.seconds());
    EXPECT_EQ(a.power_segments[i].length.seconds(),
              b.power_segments[i].length.seconds());
    EXPECT_EQ(a.power_segments[i].system_power.watts(),
              b.power_segments[i].system_power.watts());
  }
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    EXPECT_EQ(a.completions[i].instance_id, b.completions[i].instance_id);
    EXPECT_EQ(a.completions[i].kernel_name, b.completions[i].kernel_name);
    EXPECT_EQ(a.completions[i].finish_time.seconds(),
              b.completions[i].finish_time.seconds());
  }
  ASSERT_EQ(a.occupancy.size(), b.occupancy.size());
  for (std::size_t i = 0; i < a.occupancy.size(); ++i) {
    EXPECT_EQ(a.occupancy[i].time.seconds(), b.occupancy[i].time.seconds());
    EXPECT_EQ(a.occupancy[i].busy_sms, b.occupancy[i].busy_sms);
    EXPECT_EQ(a.occupancy[i].resident_blocks, b.occupancy[i].resident_blocks);
    EXPECT_EQ(a.occupancy[i].dram_utilization,
              b.occupancy[i].dram_utilization);
  }
}

// ---------------- signatures ----------------

TEST(PlanSignature, DistinguishesPlansTagsAndConfigs) {
  const gpusim::DeviceConfig dev = gpusim::tesla_c1060();
  const auto plan = two_kernel_plan();
  const auto base = gpusim::plan_signature(plan, dev, nullptr, "run", true);

  EXPECT_EQ(base.key,
            gpusim::plan_signature(plan, dev, nullptr, "run", true).key);
  EXPECT_NE(base.key,
            gpusim::plan_signature(plan, dev, nullptr, "serial", true).key);

  auto other = plan;
  other.instances[0].desc.mix.fp_insts += 1.0;
  EXPECT_NE(base.key,
            gpusim::plan_signature(other, dev, nullptr, "run", true).key);

  auto slower = dev;
  slower.dram_bandwidth = common::Bandwidth::from_bytes_per_second(
      dev.dram_bandwidth.bytes_per_second() * 0.5);
  EXPECT_NE(base.key,
            gpusim::plan_signature(plan, slower, nullptr, "run", true).key);

  const auto energy = gpusim::c1060_energy();
  EXPECT_NE(base.key,
            gpusim::plan_signature(plan, dev, &energy, "run", true).key);
}

TEST(PlanSignature, OwnerNeverMattersInstanceIdsOnlyOnRequest) {
  const gpusim::DeviceConfig dev = gpusim::tesla_c1060();
  auto plan = two_kernel_plan();
  auto renamed = plan;
  renamed.instances[0].owner = "mallory";
  EXPECT_EQ(gpusim::plan_signature(plan, dev, nullptr, "run", true).key,
            gpusim::plan_signature(renamed, dev, nullptr, "run", true).key);

  auto renumbered = plan;
  renumbered.instances[0].instance_id = 7;
  EXPECT_NE(gpusim::plan_signature(plan, dev, nullptr, "run", true).key,
            gpusim::plan_signature(renumbered, dev, nullptr, "run", true).key);
  EXPECT_EQ(gpusim::plan_signature(plan, dev, nullptr, "run", false).key,
            gpusim::plan_signature(renumbered, dev, nullptr, "run", false).key);
}

TEST(PlanSignature, PrefixFormMatchesDirectForm) {
  const gpusim::DeviceConfig dev = gpusim::tesla_c1060();
  const auto energy = gpusim::c1060_energy();
  const auto plan = two_kernel_plan();
  const auto direct = gpusim::plan_signature(plan, dev, &energy, "run", true);
  const auto prefix = gpusim::config_key_prefix(dev, &energy);
  const auto split =
      gpusim::plan_signature_with_prefix(plan, prefix, "run", true);
  EXPECT_EQ(direct.key, split.key);
}

// ---------------- the cache itself ----------------

TEST(SimCache, HitIsBitIdenticalToFreshRun) {
  gpusim::FluidEngine engine;
  const auto plan = two_kernel_plan();
  const auto sig = gpusim::plan_signature(plan, engine.device(),
                                          &engine.energy_config(), "run",
                                          true);
  gpusim::RunResultCache cache(8);
  EXPECT_FALSE(cache.get(sig).has_value());
  const auto fresh = engine.run(plan);
  cache.put(sig, fresh);

  const auto hit = cache.get(sig);
  ASSERT_TRUE(hit.has_value());
  expect_identical(*hit, fresh);
  // ... and to a brand-new simulation of the same plan.
  expect_identical(*hit, engine.run(plan));
}

TEST(SimCache, LruEvictsTheLeastRecentlyUsedEntryAtCapacity) {
  gpusim::SimCache<int> cache(2);
  auto key = [](const char* s) {
    gpusim::PlanSignature sig;
    sig.key = s;
    return sig;
  };
  cache.put(key("a"), 1);
  cache.put(key("b"), 2);
  ASSERT_TRUE(cache.get(key("a")).has_value());  // refresh a; b becomes LRU
  cache.put(key("c"), 3);                        // over capacity: b evicted
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.get(key("b")).has_value());
  EXPECT_EQ(cache.get(key("a")).value_or(-1), 1);
  EXPECT_EQ(cache.get(key("c")).value_or(-1), 3);

  const auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.hits, 3u);    // get(a), get(a), get(c)
  EXPECT_EQ(s.misses, 1u);  // get(b) after its eviction
}

TEST(SimCache, PutOnAnExistingKeyRefreshesInPlace) {
  gpusim::SimCache<int> cache(4);
  gpusim::PlanSignature sig;
  sig.key = "same";
  cache.put(sig, 1);
  cache.put(sig, 2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.get(sig).value_or(-1), 2);
}

TEST(SimCache, ClearDropsEntriesButKeepsCounters) {
  gpusim::SimCache<int> cache(4);
  gpusim::PlanSignature sig;
  sig.key = "k";
  cache.put(sig, 9);
  ASSERT_TRUE(cache.get(sig).has_value());
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get(sig).has_value());
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
}

// ---------------- decision engine under pool + cache ----------------

class CachedDecisionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new gpusim::FluidEngine();
    power::ModelTrainer trainer(*engine_);
    model_ = new power::GpuPowerModel(
        trainer.train(workloads::rodinia_training_kernels()).model);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete engine_;
    model_ = nullptr;
    engine_ = nullptr;
  }

  static consolidate::Decision decide_once(consolidate::DecisionEngine& eng) {
    gpusim::LaunchPlan plan;
    std::vector<std::optional<cpusim::CpuTask>> profiles;
    int id = 0;
    for (const auto& spec :
         {workloads::encryption_12k(), workloads::encryption_12k(),
          workloads::sorting_6k()}) {
      plan.instances.push_back(gpusim::KernelInstance{spec.gpu, id, ""});
      cpusim::CpuTask task = spec.cpu;
      task.instance_id = id++;
      profiles.emplace_back(std::move(task));
    }
    return eng.decide(plan, profiles, common::Duration::from_seconds(0.25));
  }

  static gpusim::FluidEngine* engine_;
  static power::GpuPowerModel* model_;
};
gpusim::FluidEngine* CachedDecisionTest::engine_ = nullptr;
power::GpuPowerModel* CachedDecisionTest::model_ = nullptr;

TEST_F(CachedDecisionTest, DecideIsDeterministicUnderPoolAndCache) {
  consolidate::DecisionEngine plain(engine_->device(), *model_, {}, {});
  const auto reference = decide_once(plain);

  common::ThreadPool pool(4);
  consolidate::DecisionEngine tuned(engine_->device(), *model_, {}, {});
  tuned.set_pool(&pool);
  tuned.enable_prediction_cache(64);
  for (int round = 0; round < 25; ++round) {
    const auto d = decide_once(tuned);
    EXPECT_EQ(d.chosen, reference.chosen);
    ASSERT_EQ(d.estimates.size(), reference.estimates.size());
    for (std::size_t i = 0; i < d.estimates.size(); ++i) {
      EXPECT_EQ(d.estimates[i].which, reference.estimates[i].which);
      EXPECT_EQ(d.estimates[i].time.seconds(),
                reference.estimates[i].time.seconds());
      EXPECT_EQ(d.estimates[i].energy.joules(),
                reference.estimates[i].energy.joules());
      EXPECT_EQ(d.estimates[i].feasible, reference.estimates[i].feasible);
      EXPECT_EQ(d.estimates[i].note, reference.estimates[i].note);
    }
  }
  const auto s = tuned.prediction_cache_stats();
  EXPECT_GT(s.hits, 0u);
  // Distinct shapes: the 3-instance consolidated plan + 2 distinct singles
  // (the repeated encryption instance shares one entry).
  EXPECT_EQ(s.misses, 3u);
}

// ---------------- queue simulator: parity and speedup ----------------

class QueueCacheTest : public CachedDecisionTest {
 protected:
  static std::map<std::string, workloads::InstanceSpec> catalogue() {
    std::map<std::string, workloads::InstanceSpec> c;
    for (auto spec : {workloads::encryption_12k(), workloads::sorting_6k(),
                      workloads::compression_64m()}) {
      c.emplace(spec.name, std::move(spec));
    }
    return c;
  }

  /// `batches` repetitions of the same 5-request batch shape.
  static std::vector<trace::Request> repeated_trace(int batches,
                                                    const std::string& name) {
    std::vector<trace::Request> reqs;
    for (int b = 0; b < batches; ++b) {
      for (int i = 0; i < 5; ++i) {
        trace::Request r;
        r.arrival_seconds = b * 10.0 + i * 0.1;
        r.workload = name;
        r.user_id = i;
        reqs.push_back(std::move(r));
      }
    }
    return reqs;
  }

  static void expect_same_outcomes(const consolidate::QueueSimResult& a,
                                   const consolidate::QueueSimResult& b) {
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.makespan.seconds(), b.makespan.seconds());
    EXPECT_EQ(a.energy.joules(), b.energy.joules());
    EXPECT_EQ(a.mean_latency_seconds, b.mean_latency_seconds);
    EXPECT_EQ(a.p95_latency_seconds, b.p95_latency_seconds);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
      EXPECT_EQ(a.outcomes[i].user_id, b.outcomes[i].user_id);
      EXPECT_EQ(a.outcomes[i].workload, b.outcomes[i].workload);
      EXPECT_EQ(a.outcomes[i].arrival_seconds, b.outcomes[i].arrival_seconds);
      EXPECT_EQ(a.outcomes[i].finish_seconds, b.outcomes[i].finish_seconds);
    }
  }
};

TEST_F(QueueCacheTest, CacheOnReplayMatchesCacheOffExactly) {
  const auto reqs = repeated_trace(40, "encryption_12k");
  consolidate::QueueSimOptions off;
  off.batch_threshold = 5;
  off.enable_sim_cache = false;
  consolidate::QueueSimOptions on = off;
  on.enable_sim_cache = true;

  consolidate::QueueSimulator cold(*engine_, *model_, catalogue(), off);
  consolidate::QueueSimulator warm(*engine_, *model_, catalogue(), on);
  const auto a = cold.run(reqs);
  const auto b = warm.run(reqs);
  expect_same_outcomes(a, b);

  // The cache-off replay never touches a cache; the cache-on replay sees
  // only a couple of distinct shapes across the 40 identical batches.
  EXPECT_EQ(a.run_cache_stats.hits + a.run_cache_stats.misses, 0u);
  EXPECT_EQ(a.predict_cache_stats.hits + a.predict_cache_stats.misses, 0u);
  EXPECT_GT(b.predict_cache_stats.hits, 0u);
  EXPECT_LE(b.predict_cache_stats.misses, 4u);
}

TEST_F(QueueCacheTest, PoolDoesNotChangeReplayResults) {
  const auto reqs = repeated_trace(20, "encryption_12k");
  consolidate::QueueSimOptions serial_opt;
  serial_opt.batch_threshold = 5;
  consolidate::QueueSimOptions pooled_opt = serial_opt;
  common::ThreadPool pool(4);
  pooled_opt.pool = &pool;

  consolidate::QueueSimulator serial(*engine_, *model_, catalogue(),
                                     serial_opt);
  consolidate::QueueSimulator pooled(*engine_, *model_, catalogue(),
                                     pooled_opt);
  expect_same_outcomes(serial.run(reqs), pooled.run(reqs));
}

TEST_F(QueueCacheTest, RepeatedBatchShapeReplaysAtLeastFiveTimesFaster) {
  // The acceptance scenario: the same batch shape repeated 100 times. The
  // compression workload's simulations are expensive enough that signature
  // building is noise, so the margin over 5x is wide (~15x in practice).
  const auto reqs = repeated_trace(100, "compression");
  consolidate::QueueSimOptions off;
  off.batch_threshold = 5;
  off.enable_sim_cache = false;
  consolidate::QueueSimOptions on = off;
  on.enable_sim_cache = true;

  consolidate::QueueSimulator cold(*engine_, *model_, catalogue(), off);
  consolidate::QueueSimulator warm(*engine_, *model_, catalogue(), on);

  const auto t0 = std::chrono::steady_clock::now();
  const auto a = cold.run(reqs);
  const auto t1 = std::chrono::steady_clock::now();
  const auto b = warm.run(reqs);
  const auto t2 = std::chrono::steady_clock::now();

  expect_same_outcomes(a, b);
  const double cold_s = std::chrono::duration<double>(t1 - t0).count();
  const double warm_s = std::chrono::duration<double>(t2 - t1).count();
  EXPECT_GE(cold_s, 5.0 * warm_s)
      << "cold " << cold_s << " s vs warm " << warm_s << " s";
}

}  // namespace
}  // namespace ewc
