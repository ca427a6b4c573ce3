// Cache-correctness suite for the prediction/simulation memoization layer:
// a hit must be bit-identical to a fresh simulation, LRU must evict at
// capacity, the decision engine must stay deterministic with the cache
// and the thread pool engaged, and the ewcd backend on its memos must
// reproduce a cache-less reference group for group. Carries the "sanitize"
// ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.hpp"
#include "consolidate/backend.hpp"
#include "consolidate/decision.hpp"
#include "consolidate/plan_order.hpp"
#include "consolidate/queue_sim.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/sim_cache.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "power/power_model.hpp"
#include "workloads/paper_configs.hpp"

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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// ---------------- signatures ----------------

TEST(PlanSignature, DistinguishesPlans) {
  const auto plan = two_kernel_plan();
  const auto base = gpusim::plan_signature(plan);
  EXPECT_EQ(base.key, gpusim::plan_signature(plan).key);

  auto other = plan;
  other.instances[0].desc.mix.fp_insts += 1.0;
  EXPECT_NE(base.key, gpusim::plan_signature(other).key);

  auto reused = plan;
  reused.reuse_constant_data = true;
  EXPECT_NE(base.key, gpusim::plan_signature(reused).key);

  auto swapped = plan;  // plan order is the dispatch order
  std::swap(swapped.instances[0], swapped.instances[1]);
  EXPECT_NE(base.key, gpusim::plan_signature(swapped).key);
}

TEST(PlanSignature, IgnoresOwnersAndInstanceIds) {
  const auto plan = two_kernel_plan();
  auto renamed = plan;
  renamed.instances[0].owner = "mallory";
  EXPECT_EQ(gpusim::plan_signature(plan).key,
            gpusim::plan_signature(renamed).key);

  auto renumbered = plan;
  renumbered.instances[0].instance_id = 7;
  renumbered.instances[1].instance_id = 3;
  EXPECT_EQ(gpusim::plan_signature(plan).key,
            gpusim::plan_signature(renumbered).key);
}

// same_key must agree with the encoding on every field, signed zero
// included: the close memo keys a run of launches once on it.
TEST(PlanSignature, SameKeyIsEqualEncoding) {
  const gpusim::KernelDesc base = workloads::encryption_12k().gpu;
  std::vector<std::function<void(gpusim::KernelDesc&)>> edits = {
      [](auto& k) { k.name += "x"; },
      [](auto& k) { ++k.num_blocks; },
      [](auto& k) { ++k.threads_per_block; },
      [](auto& k) { k.mix.fp_insts += 1.0; },
      [](auto& k) { k.mix.int_insts += 1.0; },
      [](auto& k) { k.mix.sfu_insts += 1.0; },
      [](auto& k) { k.mix.sync_insts += 1.0; },
      [](auto& k) { k.mix.coalesced_mem_insts += 1.0; },
      [](auto& k) { k.mix.uncoalesced_mem_insts += 1.0; },
      [](auto& k) { k.mix.shared_accesses += 1.0; },
      [](auto& k) { k.mix.const_accesses += 1.0; },
      [](auto& k) { ++k.resources.registers_per_thread; },
      [](auto& k) { ++k.resources.shared_mem_per_block; },
      [](auto& k) { k.resources.constant_data = common::Bytes::from_bytes(1); },
      [](auto& k) { k.mlp = -0.0; },  // == 0.0, but other bits
      [](auto& k) { k.h2d_bytes = k.h2d_bytes + common::Bytes::from_bytes(1); },
      [](auto& k) { k.d2h_bytes = k.d2h_bytes + common::Bytes::from_bytes(1); },
      [](auto&) {},  // no change
  };
  auto encoded = [](const gpusim::KernelDesc& k) {
    std::string key;
    gpusim::append_key(key, k);
    return key;
  };
  for (std::size_t i = 0; i < edits.size(); ++i) {
    gpusim::KernelDesc edited = base;
    edits[i](edited);
    const bool same_encoding = encoded(base) == encoded(edited);
    EXPECT_EQ(gpusim::same_key(base, edited), same_encoding) << "edit " << i;
    EXPECT_EQ(same_encoding, i + 1 == edits.size()) << "edit " << i;
  }
}

// ---------------- the run memo ----------------

TEST(RunMemo, HitIsBitIdenticalToFreshRun) {
  gpusim::FluidEngine engine;
  const auto plan = two_kernel_plan();
  const gpusim::RunResult fresh = engine.run(plan);

  gpusim::RunMemo memo(engine, 8);
  const gpusim::RunOutcome cold = memo.run(plan);
  auto renumbered = plan;  // a hit under other ids keeps plan positions
  renumbered.instances[0].instance_id = 41;
  renumbered.instances[1].instance_id = 40;
  const gpusim::RunOutcome warm = memo.run(renumbered);

  for (const auto* o : {&cold, &warm}) {
    EXPECT_EQ(bits(o->total_time.seconds()), bits(fresh.total_time.seconds()));
    EXPECT_EQ(bits(o->system_energy.joules()),
              bits(fresh.system_energy.joules()));
    ASSERT_EQ(o->finish_times.size(), plan.instances.size());
    for (const auto& c : fresh.completions) {
      EXPECT_EQ(
          bits(o->finish_times.at(static_cast<std::size_t>(c.instance_id))
                   .seconds()),
          bits(c.finish_time.seconds()));
    }
  }
  const auto s = memo.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
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
    model_ = new power::GpuPowerModel(power::default_device_model());
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
      EXPECT_EQ(d.estimates[i].charge.joules(),
                reference.estimates[i].charge.joules());
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
                      workloads::compression_64m(), workloads::kmeans_256k(),
                      workloads::scenario1_montecarlo(),
                      workloads::scenario1_encryption()}) {
      c.emplace(spec.name, std::move(spec));
    }
    return c;
  }

  /// `batches` repetitions of the same 5-request batch shape.
  static std::vector<consolidate::Request> repeated_trace(
      int batches, const std::vector<std::string>& shape) {
    std::vector<consolidate::Request> reqs;
    for (int b = 0; b < batches; ++b) {
      for (int i = 0; i < 5; ++i) {
        consolidate::Request r;
        r.arrival_seconds = b * 10.0 + i * 0.1;
        r.workload = shape[static_cast<std::size_t>(i) % shape.size()];
        r.user_id = i;
        reqs.push_back(std::move(r));
      }
    }
    return reqs;
  }
  static std::vector<consolidate::Request> repeated_trace(
      int batches, const std::string& name) {
    return repeated_trace(batches, std::vector<std::string>{name});
  }

  static void expect_same_outcomes(const consolidate::QueueSimResult& a,
                                   const consolidate::QueueSimResult& b) {
    EXPECT_EQ(a.batch_sizes, b.batch_sizes);
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
  consolidate::QueueSimOptions off;
  off.batch_threshold = 5;
  off.enable_sim_cache = false;
  consolidate::QueueSimOptions on = off;
  on.enable_sim_cache = true;

  // encryption_12k batches run consolidated: one memo lookup per batch.
  // Section III's scenario 1 (memory-bound Monte Carlo with encryption,
  // 3:2) is harmful to consolidate, and each batch runs cheapest as one part
  // per kernel: the three Monte Carlo launches serially, one lookup each,
  // summed, which must reproduce the cache-off serial totals bit for bit,
  // and the two encryption launches on the CPU, no lookup.
  struct Case {
    std::vector<std::string> shape;
    int batches;
    std::uint64_t lookups_per_batch;
    std::uint64_t shapes;  ///< distinct plans run: the memo's misses
    /// Distinct plans predicted: the prediction memo's misses, counting the
    /// close checks' 3- and 4-launch pending batches, the full batches
    /// they are compared with and a split batch's parts.
    std::uint64_t predictions;
  };
  const std::vector<std::string> scenario1 = {"scenario1_mc",
                                             "scenario1_encryption"};
  for (const Case& c : {Case{{"encryption_12k"}, 40, 1, 1, 4},
                        Case{scenario1, 8, 3, 1, 8}}) {
    SCOPED_TRACE(c.shape.front());
    const auto reqs = repeated_trace(c.batches, c.shape);
    consolidate::QueueSimulator cold(*engine_, *model_, catalogue(), off);
    consolidate::QueueSimulator warm(*engine_, *model_, catalogue(), on);
    const auto a = cold.run(reqs);
    const auto b = warm.run(reqs);
    expect_same_outcomes(a, b);

    // The cache-off replay never touches a cache; the cache-on replay sees
    // only a couple of distinct shapes across the identical batches.
    EXPECT_EQ(a.run_cache_stats.hits + a.run_cache_stats.misses, 0u);
    EXPECT_EQ(a.predict_cache_stats.hits + a.predict_cache_stats.misses, 0u);
    EXPECT_EQ(b.run_cache_stats.hits + b.run_cache_stats.misses,
              c.lookups_per_batch * static_cast<std::uint64_t>(c.batches));
    EXPECT_EQ(b.run_cache_stats.misses, c.shapes);
    EXPECT_GT(b.predict_cache_stats.hits, 0u);
    EXPECT_EQ(b.predict_cache_stats.misses, c.predictions);
  }
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

TEST_F(QueueCacheTest, RepeatedBatchShapeWarmReplayComputesEachShapeOnce) {
  // The acceptance scenario: the same batch shape repeated 100 times. A
  // warm replay is faster than a cold one by exactly the work it does not
  // redo, so count that work instead of timing it. kmeans batches run
  // serially on the GPU, so every launch is a run-memo lookup (compression
  // batches run on the CPU, which has no memo). 500 launches close as
  // {5, 3 x 165}: a threshold batch, then an early close at every third
  // launch.
  const auto reqs = repeated_trace(100, "kmeans");
  consolidate::QueueSimOptions off;
  off.batch_threshold = 5;
  off.enable_sim_cache = false;
  consolidate::QueueSimOptions on = off;
  on.enable_sim_cache = true;

  const auto a =
      consolidate::QueueSimulator(*engine_, *model_, catalogue(), off).run(reqs);
  obs::Registry::instance().clear();
  const auto b =
      consolidate::QueueSimulator(*engine_, *model_, catalogue(), on).run(reqs);
  expect_same_outcomes(a, b);
  std::vector<int> sizes(166, 3);
  sizes.front() = 5;
  EXPECT_EQ(b.batch_sizes, sizes);
  EXPECT_EQ(a.run_cache_stats.hits + a.run_cache_stats.misses, 0u);
  EXPECT_EQ(a.predict_cache_stats.hits + a.predict_cache_stats.misses, 0u);

  // 500 single-instance runs of one shape: the first is simulated.
  EXPECT_EQ(b.run_cache_stats.misses, 1u);
  EXPECT_EQ(b.run_cache_stats.hits, 499u);
  // Three evaluations, each one consolidated and n single predictions: the
  // first batch's decide (5 launches), then the first close check's pending
  // batch (3) and the full batch it is compared with (5). Three distinct
  // plans: x5, x3 and the single.
  EXPECT_EQ(b.predict_cache_stats.misses, 3u);
  EXPECT_EQ(b.predict_cache_stats.hits, 13u);
  // One check per early close; every later batch closes on the first one's
  // verdict and decides with its evaluation, so nothing else is evaluated.
  obs::Registry& registry = obs::Registry::instance();
  EXPECT_EQ(registry.counter("backend.close_cache.misses").value(), 1.0);
  EXPECT_EQ(registry.counter("backend.close_cache.hits").value(), 164.0);
}

// ---------------- the ewcd backend on its memos ----------------

/// One group's observable results: its reports (one per part when it ran
/// split by kernel) and each request's reply finish time, by request
/// position.
struct GroupResult {
  std::vector<consolidate::BatchReport> reports;
  std::vector<double> finish;
};

/// A group of launches, the single template that covers it, and the
/// alternative it is expected to execute: one entry when it runs whole, one
/// per part, in plan order, when it runs split by kernel.
struct GroupCase {
  const char* name;
  std::vector<gpusim::KernelDesc> descs;
  std::vector<consolidate::Alternative> paths;
  consolidate::DecisionPolicy policy = consolidate::DecisionPolicy::kModelBased;
  int max_total_blocks = 240;
};

std::vector<GroupCase> group_cases() {
  using consolidate::Alternative;
  using consolidate::DecisionPolicy;
  std::vector<GroupCase> cases;
  // Section III's scenario 1, 3:2: consolidating the memory-bound Monte
  // Carlo with encryption is predicted to cost more than running serially.
  // Split by kernel it charges less still: the two encryption launches
  // consolidated, then the three Monte Carlo launches serially.
  const auto mc = workloads::scenario1_montecarlo().gpu;
  const auto mc_enc = workloads::scenario1_encryption().gpu;
  cases.push_back({"scenario1 3:2", {mc, mc_enc, mc, mc_enc, mc},
                   {Alternative::kConsolidatedGpu,
                    Alternative::kIndividualGpu}});

  // Chunks of two encryption_6k instances: three back-to-back launches.
  const auto enc = workloads::encryption_6k().gpu;
  cases.push_back({"encryption_6k x6 split", {},
                   {Alternative::kConsolidatedGpu},
                   DecisionPolicy::kAlwaysConsolidate, 2 * enc.num_blocks});
  cases.back().descs.assign(6, enc);

  // The 2:1 mix charges less as two consolidated parts, eleven encryption
  // launches and then five sorts, than as one consolidated group.
  cases.push_back({"encryption_6k:sorting_6k 2:1 x16", {},
                   {Alternative::kConsolidatedGpu,
                    Alternative::kConsolidatedGpu}});
  for (int i = 0; i < 16; ++i) {
    cases.back().descs.push_back(i % 3 == 2 ? workloads::sorting_6k().gpu
                                            : enc);
  }

  gpusim::KernelDesc empty = enc;
  empty.name = "empty";
  empty.num_blocks = 0;
  cases.push_back({"zero-block kernel", {enc, empty, enc},
                   {Alternative::kConsolidatedGpu},
                   DecisionPolicy::kAlwaysConsolidate});
  cases.push_back({"zero-block kernel, individual", {empty, enc, empty},
                   {Alternative::kIndividualGpu},
                   DecisionPolicy::kNeverConsolidate});
  return cases;
}

consolidate::TemplateRegistry template_for(const GroupCase& c) {
  consolidate::ConsolidationTemplate t;
  t.name = "memo_test";
  for (const auto& d : c.descs) t.kernels.insert(d.name);
  t.max_total_blocks = c.max_total_blocks;
  consolidate::TemplateRegistry templates;
  templates.add(std::move(t));
  return templates;
}

/// The owner of `c`'s launch `i`: owners sort in send order.
std::string group_owner(std::size_t i) {
  return "u" + std::string(i < 10 ? "0" : "") + std::to_string(i);
}

/// Send `c` as one group, flush, and collect.
GroupResult run_group(consolidate::Backend& backend, const GroupCase& c,
                      std::uint64_t first_request_id) {
  const std::size_t earlier = backend.reports().size();
  auto replies = std::make_shared<consolidate::ReplyChannel>();
  const std::size_t n = c.descs.size();
  for (std::size_t i = 0; i < n; ++i) {
    consolidate::LaunchRequest req;
    req.owner = group_owner(i);
    req.request_id = first_request_id + i;
    req.desc = c.descs[i];
    req.api_messages = 1;
    req.reply = replies;
    EXPECT_TRUE(backend.channel().send(std::move(req)));
  }
  backend.flush();
  GroupResult out;
  out.finish.assign(n, -1.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto reply =
        replies->receive_for(common::Duration::from_seconds(30.0));
    if (!reply.has_value()) {
      ADD_FAILURE() << "reply " << i << " never arrived";
      break;
    }
    EXPECT_TRUE(reply->ok) << reply->error;
    out.finish.at(reply->request_id - first_request_id) =
        reply->finish_time.seconds();
  }
  const auto reports = backend.reports();
  out.reports.assign(reports.begin() + static_cast<std::ptrdiff_t>(earlier),
                     reports.end());
  return out;
}

/// What BatchFormer must produce for one part (or whole group) `plan` of
/// `c`, computed without any cache: decide on `plain`, a DecisionEngine with
/// no prediction cache, and execute with direct FluidEngine::run calls. Each
/// instance's id is its send position, which labels its finish in `finish`.
consolidate::BatchReport reference_part(const gpusim::FluidEngine& engine,
                                        const consolidate::DecisionEngine& plain,
                                        const consolidate::BackendOptions& options,
                                        const GroupCase& c,
                                        const gpusim::LaunchPlan& plan,
                                        std::vector<double>* finish) {
  const std::size_t n = plan.instances.size();
  const std::vector<std::optional<cpusim::CpuTask>> profiles(n);
  const common::Duration overhead =
      plain.overhead(plan.instances, std::vector<std::size_t>(n, 0),
                     std::vector<int>(n, 1), options.optimizations);
  const auto decision = plain.decide(plan, profiles, overhead, c.policy);

  consolidate::BatchReport report;
  report.decision = decision;
  report.executed = decision.chosen;
  common::Duration offset = common::Duration::zero();
  common::Energy energy = common::Energy::zero();
  if (decision.chosen == consolidate::Alternative::kConsolidatedGpu) {
    std::size_t i = 0;
    while (i < plan.instances.size()) {
      gpusim::LaunchPlan chunk;
      chunk.reuse_constant_data = plan.reuse_constant_data;
      int blocks = 0;
      while (i < plan.instances.size() &&
             (blocks == 0 || blocks + plan.instances[i].desc.num_blocks <=
                                 c.max_total_blocks)) {
        blocks += plan.instances[i].desc.num_blocks;
        chunk.instances.push_back(plan.instances[i++]);
      }
      const gpusim::RunResult run = engine.run(chunk);
      for (const auto& done : run.completions) {
        finish->at(static_cast<std::size_t>(done.instance_id)) =
            (overhead + offset + done.finish_time).seconds();
      }
      offset += run.total_time;
      energy += run.system_energy;
      report.consolidated_launches += 1;
    }
  } else {
    EXPECT_EQ(decision.chosen, consolidate::Alternative::kIndividualGpu);
    for (std::size_t i = 0; i < plan.instances.size(); ++i) {
      gpusim::LaunchPlan single;
      single.instances.push_back(plan.instances[i]);
      const gpusim::RunResult run = engine.run(single);
      finish->at(static_cast<std::size_t>(plan.instances[i].instance_id)) =
          (overhead + offset + run.total_time).seconds();
      offset += run.total_time;
      energy += run.system_energy;
    }
  }
  energy += engine.energy_config().system_idle_with_gpu * overhead;
  report.overhead = overhead;
  report.execution_time = offset;
  report.total_time = overhead + offset;
  report.energy = energy;
  return report;
}

/// What BatchFormer must produce for `c`, computed without any cache: the
/// group in the backend's plan order (kernel name, then owner, which is send
/// order) runs whole, or, under the model-based policy, as one part per
/// kernel when the parts' chosen charges sum below the whole group's.
GroupResult reference_group(const gpusim::FluidEngine& engine,
                            const power::GpuPowerModel& model,
                            const consolidate::BackendOptions& options,
                            const GroupCase& c) {
  const consolidate::DecisionEngine plain(engine.device(), model,
                                          options.cpu_config, options.costs,
                                          engine.energy_config());
  std::vector<std::string> owners;
  for (std::size_t i = 0; i < c.descs.size(); ++i) {
    owners.push_back(group_owner(i));
  }
  const std::vector<std::size_t> order = consolidate::plan_order(
      c.descs.size(),
      [&](std::size_t i) -> std::string_view { return c.descs[i].name; },
      [&](std::size_t i) -> std::string_view { return owners[i]; });
  gpusim::LaunchPlan whole;
  whole.reuse_constant_data = options.optimizations.constant_data_reuse;
  std::vector<gpusim::LaunchPlan> parts;
  for (const std::size_t i : order) {
    const gpusim::KernelInstance inst{c.descs[i], static_cast<int>(i), ""};
    if (parts.empty() ||
        parts.back().instances.back().desc.name != inst.desc.name) {
      parts.emplace_back().reuse_constant_data = whole.reuse_constant_data;
    }
    parts.back().instances.push_back(inst);
    whole.instances.push_back(inst);
  }
  const auto charge = [&](const gpusim::LaunchPlan& plan) {
    const std::size_t n = plan.instances.size();
    const common::Duration overhead =
        plain.overhead(plan.instances, std::vector<std::size_t>(n, 0),
                       std::vector<int>(n, 1), options.optimizations);
    return plain
        .evaluate(plan, std::vector<std::optional<cpusim::CpuTask>>(n),
                  overhead, c.policy)
        .chosen_estimate()
        .charge;
  };
  std::vector<gpusim::LaunchPlan> runs{whole};
  if (c.policy == consolidate::DecisionPolicy::kModelBased &&
      parts.size() > 1) {
    common::Energy parts_charge = common::Energy::zero();
    for (const auto& part : parts) parts_charge += charge(part);
    if (parts_charge < charge(whole)) runs = parts;
  }

  GroupResult out;
  out.finish.assign(c.descs.size(), -1.0);
  for (const auto& plan : runs) {
    out.reports.push_back(
        reference_part(engine, plain, options, c, plan, &out.finish));
  }
  return out;
}

void expect_same_group(const GroupResult& got, const GroupResult& want) {
  ASSERT_EQ(got.reports.size(), want.reports.size());
  for (std::size_t part = 0; part < got.reports.size(); ++part) {
    SCOPED_TRACE("part " + std::to_string(part));
    const auto& a = got.reports[part];
    const auto& b = want.reports[part];
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.consolidated_launches, b.consolidated_launches);
    EXPECT_EQ(bits(a.overhead.seconds()), bits(b.overhead.seconds()));
    EXPECT_EQ(bits(a.execution_time.seconds()),
              bits(b.execution_time.seconds()));
    EXPECT_EQ(bits(a.total_time.seconds()), bits(b.total_time.seconds()));
    EXPECT_EQ(bits(a.energy.joules()), bits(b.energy.joules()));
    ASSERT_EQ(a.decision.has_value(), b.decision.has_value());
    if (a.decision.has_value()) {
      EXPECT_EQ(a.decision->chosen, b.decision->chosen);
      ASSERT_EQ(a.decision->estimates.size(), b.decision->estimates.size());
      for (std::size_t i = 0; i < a.decision->estimates.size(); ++i) {
        const auto& ea = a.decision->estimates[i];
        const auto& eb = b.decision->estimates[i];
        EXPECT_EQ(bits(ea.time.seconds()), bits(eb.time.seconds()));
        EXPECT_EQ(bits(ea.charge.joules()), bits(eb.charge.joules()));
        EXPECT_EQ(ea.note, eb.note);
      }
    }
  }
  ASSERT_EQ(got.finish.size(), want.finish.size());
  for (std::size_t i = 0; i < got.finish.size(); ++i) {
    EXPECT_EQ(bits(got.finish[i]), bits(want.finish[i])) << "request " << i;
  }
}

/// Parameter: the decision deadline in seconds. With a deadline, decide()
/// runs on the backend's decision thread, which fills the prediction memo
/// while the batch thread reads its stats; the estimates it hands back must
/// still be bit-identical.
class BackendMemoTest : public CachedDecisionTest,
                        public ::testing::WithParamInterface<double> {};

TEST_P(BackendMemoTest, WarmGroupsMatchColdGroupsAndTheCachelessReference) {
  for (const GroupCase& c : group_cases()) {
    SCOPED_TRACE(c.name);
    consolidate::BackendOptions options;
    options.batch_threshold = 1000;  // groups run on flush()
    options.policy = c.policy;
    options.decision_deadline = common::Duration::from_seconds(GetParam());
    consolidate::Backend backend(*engine_, *model_, template_for(c), options);
    const GroupResult cold = run_group(backend, c, 1);
    const GroupResult warm = run_group(backend, c, 1001);
    const GroupResult want = reference_group(*engine_, *model_, options, c);
    ASSERT_EQ(want.reports.size(), c.paths.size());
    for (std::size_t part = 0; part < c.paths.size(); ++part) {
      EXPECT_EQ(want.reports[part].executed, c.paths[part]);
    }
    expect_same_group(cold, want);
    expect_same_group(warm, want);
  }
}

INSTANTIATE_TEST_SUITE_P(Deadline, BackendMemoTest,
                         ::testing::Values(0.0, 60.0));

TEST_F(CachedDecisionTest, BackendPublishesMemoCounters) {
  obs::Registry::instance().clear();
  const GroupCase c{"kmeans_256k x4",
                    std::vector<gpusim::KernelDesc>(
                        4, workloads::kmeans_256k().gpu),
                    {consolidate::Alternative::kIndividualGpu},
                    consolidate::DecisionPolicy::kNeverConsolidate};
  consolidate::BackendOptions options;
  options.batch_threshold = 1000;
  options.policy = c.policy;
  consolidate::Backend backend(*engine_, *model_, template_for(c), options);
  const GroupResult cold = run_group(backend, c, 1);
  const GroupResult warm = run_group(backend, c, 101);
  ASSERT_EQ(cold.reports.size(), 1u);
  ASSERT_EQ(warm.reports.size(), 1u);
  ASSERT_EQ(cold.reports[0].executed, c.paths[0]);
  ASSERT_EQ(warm.reports[0].executed, c.paths[0]);

  const auto counters = obs::Registry::instance().snapshot().counters;
  // Eight single-instance runs of one shape: one miss, seven hits.
  EXPECT_EQ(counters.at("backend.run_cache.misses"), 1.0);
  EXPECT_EQ(counters.at("backend.run_cache.hits"), 7.0);
  EXPECT_EQ(counters.at("backend.run_cache.evictions"), 0.0);
  // Per group: the x4 consolidated prediction and four singles. Cold: two
  // misses (the x4 plan, the single shape) and three hits; warm: all hits.
  EXPECT_EQ(counters.at("backend.predict_cache.misses"), 2.0);
  EXPECT_EQ(counters.at("backend.predict_cache.hits"), 8.0);
  EXPECT_EQ(counters.at("backend.predict_cache.evictions"), 0.0);
}

TEST_F(CachedDecisionTest, SessionInterleavingsOfOneMixShareOnePlan) {
  // Eight encryption and four sorting launches from three sessions, in two
  // interleavings: in A session s2 sends the sorts, in B session s0 does.
  struct Launch {
    std::string owner;
    gpusim::KernelDesc desc;
  };
  const auto enc = workloads::encryption_6k().gpu;
  const auto sort = workloads::sorting_6k().gpu;
  std::vector<Launch> a;
  std::vector<Launch> b;
  for (int i = 0; i < 12; ++i) {
    const std::string owner = "s" + std::to_string(i % 3);
    a.push_back({owner, i % 3 == 2 ? sort : enc});
    b.push_back({owner, i % 3 == 0 ? sort : enc});
  }
  const auto signature = [](const std::vector<Launch>& launches,
                            bool by_kernel) {
    const std::vector<std::size_t> order = consolidate::plan_order(
        launches.size(),
        [&](std::size_t i) -> std::string_view {
          return by_kernel ? std::string_view(launches[i].desc.name) : "";
        },
        [&](std::size_t i) -> std::string_view { return launches[i].owner; });
    gpusim::LaunchPlan plan;
    for (const std::size_t i : order) {
      plan.instances.push_back(gpusim::KernelInstance{
          launches[i].desc, static_cast<int>(plan.instances.size()),
          launches[i].owner});
    }
    return gpusim::plan_signature(plan).key;
  };
  // Ordered by owner alone the two are different plans; in plan order they
  // are one.
  EXPECT_NE(signature(a, false), signature(b, false));
  EXPECT_EQ(signature(a, true), signature(b, true));

  // So the backend runs B from A's memo entries: every run of B is a hit.
  consolidate::TemplateRegistry templates;
  templates.add({"enc_sort", {enc.name, sort.name}});
  consolidate::BackendOptions options;
  options.batch_threshold = 1000;  // each batch runs on flush()
  consolidate::Backend backend(*engine_, *model_, std::move(templates),
                               options);
  const auto run = [&](const std::vector<Launch>& launches,
                       std::uint64_t first_id) {
    auto replies = std::make_shared<consolidate::ReplyChannel>();
    for (std::size_t i = 0; i < launches.size(); ++i) {
      consolidate::LaunchRequest req;
      req.owner = launches[i].owner;
      req.request_id = first_id + i;
      req.desc = launches[i].desc;
      req.api_messages = 1;
      req.reply = replies;
      EXPECT_TRUE(backend.channel().send(std::move(req)));
    }
    backend.flush();
    for (std::size_t i = 0; i < launches.size(); ++i) {
      const auto reply =
          replies->receive_for(common::Duration::from_seconds(30.0));
      ASSERT_TRUE(reply.has_value());
      EXPECT_TRUE(reply->ok) << reply->error;
    }
  };
  const auto read = [](const char* name) {
    return obs::Registry::instance().counter(name).value();
  };
  run(a, 0);
  const double run_misses = read("backend.run_cache.misses");
  const double run_hits = read("backend.run_cache.hits");
  const double predict_misses = read("backend.predict_cache.misses");
  EXPECT_GT(run_misses, 0.0);
  run(b, 100);
  EXPECT_EQ(read("backend.run_cache.misses"), run_misses);
  EXPECT_EQ(read("backend.run_cache.hits"), 2 * run_hits + run_misses);
  EXPECT_EQ(read("backend.predict_cache.misses"), predict_misses);
  // Each batch runs as the same two parts, one per kernel (eight encryption
  // launches, then four sorts), which charge less than the whole group.
  const auto reports = backend.reports();
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(reports[0].num_instances, 8);
  EXPECT_EQ(reports[1].num_instances, 4);
  for (std::size_t part = 0; part < 2; ++part) {
    EXPECT_EQ(reports[part].kernel_names, reports[part + 2].kernel_names);
    EXPECT_EQ(bits(reports[part].energy.joules()),
              bits(reports[part + 2].energy.joules()));
  }
  backend.shutdown();
}

TEST_F(CachedDecisionTest, TracedHitRecordsACachedRunSpan) {
  // Two distinct shapes, run individually: the cold group misses on both,
  // the warm group hits on both. Each execution leaves one gpusim.run span.
  const GroupCase c{"encryption_6k + sorting_6k",
                    {workloads::encryption_6k().gpu,
                     workloads::sorting_6k().gpu},
                    {consolidate::Alternative::kIndividualGpu},
                    consolidate::DecisionPolicy::kNeverConsolidate};
  consolidate::BackendOptions options;
  options.batch_threshold = 1000;
  options.policy = c.policy;
  consolidate::Backend backend(*engine_, *model_, template_for(c), options);

  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  run_group(backend, c, 1);
  run_group(backend, c, 11);
  tracer.set_enabled(false);

  std::vector<obs::SpanEvent> runs;
  for (auto& ev : tracer.collect()) {
    if (ev.clock == obs::Clock::kSim && ev.name == "gpusim.run") {
      runs.push_back(std::move(ev));
    }
  }
  tracer.clear();
  ASSERT_EQ(runs.size(), 4u);
  std::sort(runs.begin(), runs.end(),
            [](const obs::SpanEvent& a, const obs::SpanEvent& b) {
              return a.request_id < b.request_id;
            });
  const std::uint64_t ids[] = {1, 2, 11, 12};
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(ids[i]));
    EXPECT_EQ(runs[i].request_id, ids[i]);
    const bool cached =
        runs[i].args.find("\"cached\":true") != std::string::npos;
    EXPECT_EQ(cached, i >= 2);
  }
  // A hit spans exactly what the run it replays did.
  EXPECT_EQ(bits(runs[2].dur_us), bits(runs[0].dur_us));
  EXPECT_EQ(bits(runs[3].dur_us), bits(runs[1].dur_us));
}

}  // namespace
}  // namespace ewc
