// The backend's close rule: a batch closes at its threshold T, on a flush
// or shutdown, or — once a batch has closed at the threshold — at any
// arrival that leaves ⌈T/2⌉ to T−1 launches pending, when the decision
// engine predicts the pending batch charges no more joules per request than
// a T-launch batch of the same kernel mix. The backend memoizes each check
// on the pending batch in plan order (kernel name, then owner, then
// arrival); a memoized check must decide exactly as a fresh one.
//
// Every test feeds the backend channel from one thread and reads the
// outcome after a flush, so batch formation depends only on the order of
// the messages: no sleeps, no wall-clock timing. The queue simulator forms
// batches through the same BatchFormer, so it must close a launch sequence
// where the backend does. Carries the ctest label "sanitize" so
// -DEWC_SANITIZE=thread builds run it under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "consolidate/backend.hpp"
#include "consolidate/queue_sim.hpp"
#include "fault/injector.hpp"
#include "obs/registry.hpp"
#include "power/power_model.hpp"
#include "workloads/paper_configs.hpp"

namespace ewc::consolidate {
namespace {

/// Launches per closed batch, in close order: the reports of a batch's
/// groups and parts, summed.
std::vector<int> batch_sizes(const std::vector<BatchReport>& reports) {
  std::vector<int> sizes;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i == 0 || reports[i].batch != reports[i - 1].batch) {
      sizes.push_back(0);
    }
    sizes.back() += reports[i].num_instances;
  }
  return sizes;
}

constexpr int kThreshold = 16;
constexpr int kHalf = (kThreshold + 1) / 2;

class CloseRuleTest : public ::testing::Test {
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

  /// A backend set up as `ewcsim serve` sets one up for `mix` (served_mix).
  static std::unique_ptr<Backend> make_backend(
      const std::vector<workloads::InstanceSpec>& mix,
      int threshold = kThreshold) {
    BackendOptions options;
    options.batch_threshold = threshold;
    return std::make_unique<Backend>(*engine_, *model_, served_mix(mix),
                                     options);
  }

  /// Queue `specs[i]` as launch `first_id + i`; the replies come back
  /// through the returned channels, in the same order.
  static std::vector<std::shared_ptr<ReplyChannel>> send(
      Backend& backend, const std::vector<workloads::InstanceSpec>& specs,
      std::uint64_t first_id = 0) {
    std::vector<std::shared_ptr<ReplyChannel>> waiters;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::uint64_t id = first_id + i;
      LaunchRequest req;
      char owner[32];
      std::snprintf(owner, sizeof owner, "c0#%04llu",
                    static_cast<unsigned long long>(id));
      req.owner = owner;
      req.request_id = id;
      req.desc = specs[i].gpu;
      req.staged_bytes = 4096;
      req.api_messages = 4;
      req.reply = std::make_shared<ReplyChannel>();
      waiters.push_back(req.reply);
      EXPECT_TRUE(backend.channel().send(std::move(req)));
    }
    return waiters;
  }

  static std::vector<CompletionReply> collect(
      const std::vector<std::shared_ptr<ReplyChannel>>& waiters) {
    std::vector<CompletionReply> replies;
    for (const auto& w : waiters) {
      auto reply = w->receive_for(common::Duration::from_seconds(60.0));
      EXPECT_TRUE(reply.has_value());
      if (!reply.has_value()) break;
      EXPECT_TRUE(reply->ok) << reply->error;
      replies.push_back(std::move(*reply));
    }
    return replies;
  }

  /// Launches per closed batch, as the former closed them.
  static std::vector<int> sizes(const Backend& backend) {
    return batch_sizes(backend.reports());
  }
  /// Launches per report: a batch's groups, or their parts.
  static std::vector<int> report_sizes(const Backend& backend) {
    std::vector<int> out;
    for (const auto& r : backend.reports()) out.push_back(r.num_instances);
    return out;
  }

  /// `specs` in the backend's plan order for launches from send(): by
  /// kernel name, then owner, which is arrival order.
  static std::vector<workloads::InstanceSpec> in_plan_order(
      std::vector<workloads::InstanceSpec> specs) {
    std::stable_sort(specs.begin(), specs.end(),
                     [](const auto& a, const auto& b) {
                       return a.gpu.name < b.gpu.name;
                     });
    return specs;
  }

  /// What `pending` would charge per request as one batch, evaluated as the
  /// backend evaluates launches from send(): in plan order, one group, 4096
  /// staged bytes and 4 API messages a launch.
  static double charge_per_request(
      const std::vector<workloads::InstanceSpec>& pending) {
    const std::vector<workloads::InstanceSpec> specs = in_plan_order(pending);
    DecisionEngine engine(engine_->device(), *model_, cpusim::CpuConfig{},
                          FrameworkCosts{}, engine_->energy_config());
    gpusim::LaunchPlan plan;
    plan.reuse_constant_data = Optimizations{}.constant_data_reuse;
    std::vector<std::optional<cpusim::CpuTask>> profiles;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      plan.instances.push_back(
          gpusim::KernelInstance{specs[i].gpu, static_cast<int>(i), ""});
      cpusim::CpuTask task = specs[i].cpu;
      task.instance_id = static_cast<int>(i);
      profiles.emplace_back(std::move(task));
    }
    const std::vector<std::size_t> staged(specs.size(), 4096);
    const std::vector<int> messages(specs.size(), 4);
    const common::Duration overhead =
        engine.overhead(plan.instances, staged, messages, Optimizations{});
    return engine.evaluate(plan, profiles, overhead)
               .chosen_estimate()
               .charge.joules() /
           static_cast<double>(specs.size());
  }

  /// The full batch a pending batch is compared with: each kernel's share
  /// of kThreshold by largest remainder (the earlier kernel in plan order
  /// first on a tie), filled with copies of that kernel's launches, the
  /// earlier ones in plan order taking any extra copy.
  static std::vector<workloads::InstanceSpec> full_batch_like(
      const std::vector<workloads::InstanceSpec>& arrived) {
    const std::vector<workloads::InstanceSpec> pending =
        in_plan_order(arrived);
    std::vector<std::string> kernels;
    std::vector<std::size_t> counts;
    for (const auto& spec : pending) {
      const auto it = std::find(kernels.begin(), kernels.end(), spec.gpu.name);
      if (it == kernels.end()) {
        kernels.push_back(spec.gpu.name);
        counts.push_back(1);
      } else {
        ++counts[static_cast<std::size_t>(it - kernels.begin())];
      }
    }
    const std::size_t n = pending.size();
    const std::size_t full = kThreshold;
    std::vector<std::size_t> shares;
    std::size_t left = full;
    for (const std::size_t c : counts) {
      shares.push_back(c * full / n);
      left -= shares.back();
    }
    for (; left > 0; --left) {
      std::size_t best = 0;
      for (std::size_t k = 1; k < counts.size(); ++k) {
        if (counts[k] * full % n > counts[best] * full % n) best = k;
      }
      ++shares[best];
      counts[best] = 0;  // one extra launch per kernel at most
    }
    std::vector<workloads::InstanceSpec> out;
    std::vector<std::size_t> seen(kernels.size(), 0);
    std::vector<std::size_t> total(kernels.size(), 0);
    for (const auto& spec : pending) {
      ++total[static_cast<std::size_t>(
          std::find(kernels.begin(), kernels.end(), spec.gpu.name) -
          kernels.begin())];
    }
    for (const auto& spec : pending) {
      const std::size_t k = static_cast<std::size_t>(
          std::find(kernels.begin(), kernels.end(), spec.gpu.name) -
          kernels.begin());
      const std::size_t j = seen[k]++;
      const std::size_t copies =
          shares[k] / total[k] + (j < shares[k] % total[k] ? 1 : 0);
      for (std::size_t c = 0; c < copies; ++c) out.push_back(spec);
    }
    return out;
  }

  /// The batch sizes the close rule gives `tail` once a batch has closed
  /// at the threshold; what is left at the end runs on a flush.
  static std::vector<int> predicted_sizes(
      const std::vector<workloads::InstanceSpec>& tail) {
    std::vector<int> sizes;
    std::vector<workloads::InstanceSpec> pending;
    for (const auto& spec : tail) {
      pending.push_back(spec);
      if (pending.size() == static_cast<std::size_t>(kThreshold) ||
          (pending.size() >= static_cast<std::size_t>(kHalf) &&
           charge_per_request(pending) <=
               charge_per_request(full_batch_like(pending)))) {
        sizes.push_back(static_cast<int>(pending.size()));
        pending.clear();
      }
    }
    if (!pending.empty()) sizes.push_back(static_cast<int>(pending.size()));
    return sizes;
  }

  static std::vector<workloads::InstanceSpec> repeat(
      const workloads::InstanceSpec& spec, int n) {
    return std::vector<workloads::InstanceSpec>(static_cast<std::size_t>(n),
                                                spec);
  }

  static gpusim::FluidEngine* engine_;
  static power::GpuPowerModel* model_;
};
gpusim::FluidEngine* CloseRuleTest::engine_ = nullptr;
power::GpuPowerModel* CloseRuleTest::model_ = nullptr;

/// The close counters, read as deltas from construction.
struct CloseCounts {
  CloseCounts() : base_(read()) {}
  std::vector<double> delta() const {
    std::vector<double> now = read();
    for (std::size_t i = 0; i < now.size(); ++i) now[i] -= base_[i];
    return now;
  }
  static std::vector<double> read() {
    obs::Registry& r = obs::Registry::instance();
    return {r.counter("backend.closes.threshold").value(),
            r.counter("backend.closes.early").value(),
            r.counter("backend.closes.flush").value(),
            r.counter("backend.close_checks").value()};
  }
  std::vector<double> base_;
};

/// The close-check memo's hits and misses, as the last backend to check
/// published them.
std::vector<double> close_cache() {
  obs::Registry& r = obs::Registry::instance();
  return {r.counter("backend.close_cache.hits").value(),
          r.counter("backend.close_cache.misses").value()};
}

/// Every REPORT field, the decision's estimates included, bit for bit.
void expect_same_report(const BatchReport& a, const BatchReport& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(a.num_instances, b.num_instances);
  EXPECT_EQ(a.kernel_names, b.kernel_names);
  EXPECT_EQ(a.template_name, b.template_name);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.consolidated_launches, b.consolidated_launches);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(bits(a.overhead.seconds()), bits(b.overhead.seconds()));
  EXPECT_EQ(bits(a.execution_time.seconds()),
            bits(b.execution_time.seconds()));
  EXPECT_EQ(bits(a.total_time.seconds()), bits(b.total_time.seconds()));
  EXPECT_EQ(bits(a.energy.joules()), bits(b.energy.joules()));
  ASSERT_TRUE(a.decision.has_value());
  ASSERT_TRUE(b.decision.has_value());
  EXPECT_EQ(a.decision->chosen, b.decision->chosen);
  ASSERT_EQ(a.decision->estimates.size(), b.decision->estimates.size());
  for (std::size_t i = 0; i < a.decision->estimates.size(); ++i) {
    const AlternativeEstimate& ea = a.decision->estimates[i];
    const AlternativeEstimate& eb = b.decision->estimates[i];
    EXPECT_EQ(ea.which, eb.which);
    EXPECT_EQ(bits(ea.time.seconds()), bits(eb.time.seconds()));
    EXPECT_EQ(bits(ea.charge.joules()), bits(eb.charge.joules()));
    EXPECT_EQ(ea.feasible, eb.feasible);
    EXPECT_EQ(ea.note, eb.note);
  }
}

TEST_F(CloseRuleTest, KmeansStreamClosesAtHalfAfterTheFirstFullBatch) {
  const auto spec = workloads::kmeans_256k();
  auto backend = make_backend({spec});
  CloseCounts counts;
  auto waiters = send(*backend, repeat(spec, 3 * kThreshold));
  backend->flush();
  const auto replies = collect(waiters);
  ASSERT_EQ(replies.size(), waiters.size());
  for (std::size_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i].request_id, i);
  }
  EXPECT_EQ(sizes(*backend),
            (std::vector<int>{kThreshold, kHalf, kHalf, kHalf, kHalf}));
  // threshold, early, flush, checks: the flush finds nothing pending.
  EXPECT_EQ(counts.delta(), (std::vector<double>{1, 4, 0, 4}));
  backend->shutdown();
}

/// `n` launches of the benchmark's 2:1 encryption/sorting mix, sorting
/// third.
std::vector<workloads::InstanceSpec> two_to_one(int n) {
  std::vector<workloads::InstanceSpec> stream;
  for (int i = 0; i < n; ++i) {
    stream.push_back(i % 3 == 2 ? workloads::sorting_6k()
                                : workloads::encryption_6k());
  }
  return stream;
}

std::vector<workloads::InstanceSpec> concat(
    std::vector<workloads::InstanceSpec> a,
    const std::vector<workloads::InstanceSpec>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

TEST_F(CloseRuleTest, TwoToOneMixClosesWhereTheSameMixReferenceSays) {
  const auto stream = two_to_one(3 * kThreshold);
  auto backend =
      make_backend({workloads::encryption_6k(), workloads::sorting_6k()});
  CloseCounts counts;
  auto waiters = send(*backend, stream);
  backend->flush();
  EXPECT_EQ(collect(waiters).size(), waiters.size());
  // After the first full batch, the 2:1 mix is cheapest per request near
  // 12 launches, not 16: its batches close there.
  const std::vector<workloads::InstanceSpec> tail(stream.begin() + kThreshold,
                                                  stream.end());
  std::vector<int> expected{kThreshold};
  for (const int size : predicted_sizes(tail)) expected.push_back(size);
  EXPECT_EQ(sizes(*backend), expected);
  EXPECT_EQ(sizes(*backend), (std::vector<int>{kThreshold, 11, 12, 9}));
  // Each batch runs as its encryption part, then its sorting part: the
  // parts charge less than the whole group.
  EXPECT_EQ(report_sizes(*backend),
            (std::vector<int>{11, 5, 7, 4, 8, 4, 6, 3}));
  // threshold, early, flush, checks: one check per arrival from the 8th
  // pending launch on (11 - 8 + 1, 12 - 8 + 1, 9 - 8 + 1).
  EXPECT_EQ(counts.delta(), (std::vector<double>{1, 2, 1, 11}));
  backend->shutdown();
}

TEST_F(CloseRuleTest, CloseSizeDependsOnlyOnThePendingBatch) {
  const auto enc = workloads::encryption_6k();
  const auto sort = workloads::sorting_6k();
  const auto batch = [&](int encs, int sorts) {
    std::vector<workloads::InstanceSpec> out;
    for (int i = 0; i < encs; ++i) out.push_back(enc);
    for (int i = 0; i < sorts; ++i) out.push_back(sort);
    return out;
  };
  // The same tail after a 14:2 full batch and after an 11:5 one, which
  // charge different amounts per request (`ewcsim compare`: 159 and 172
  // J). A reference kept from past batches would let them close the tail
  // differently; the same-mix full batch cannot.
  const auto tail = concat(two_to_one(2 * kThreshold), batch(7, 1));
  std::vector<std::vector<int>> after;
  for (const auto& first : {batch(14, 2), batch(11, 5)}) {
    auto backend = make_backend({enc, sort});
    auto waiters = send(*backend, concat(first, tail));
    backend->flush();
    EXPECT_EQ(collect(waiters).size(), waiters.size());
    std::vector<int> got = sizes(*backend);
    ASSERT_FALSE(got.empty());
    EXPECT_EQ(got.front(), kThreshold);
    got.erase(got.begin());
    after.push_back(std::move(got));
    backend->shutdown();
  }
  EXPECT_EQ(after[0], after[1]);
  EXPECT_EQ(after[0], predicted_sizes(tail));
}

TEST_F(CloseRuleTest, FreshBackendNeverClosesEarly) {
  const auto spec = workloads::kmeans_256k();
  auto backend = make_backend({spec});
  CloseCounts counts;
  auto waiters = send(*backend, repeat(spec, kThreshold - 1));
  backend->flush();
  EXPECT_EQ(collect(waiters).size(), waiters.size());
  // No batch has closed at the threshold, so no arrival is checked and
  // the flush takes all of it.
  EXPECT_EQ(sizes(*backend), (std::vector<int>{kThreshold - 1}));
  EXPECT_EQ(counts.delta(), (std::vector<double>{0, 0, 1, 0}));
  backend->shutdown();
}

TEST_F(CloseRuleTest, FlushAndShutdownCloseWhatIsPending) {
  const auto spec = workloads::kmeans_256k();
  auto backend = make_backend({spec});
  CloseCounts counts;
  auto waiters = send(*backend, repeat(spec, kThreshold + kHalf - 1));
  backend->flush();
  EXPECT_EQ(collect(waiters).size(), waiters.size());
  EXPECT_EQ(sizes(*backend), (std::vector<int>{kThreshold, kHalf - 1}));

  // Shutdown runs what is pending, too little to be checked.
  waiters = send(*backend, repeat(spec, 2), 100);
  backend->shutdown();
  EXPECT_EQ(collect(waiters).size(), waiters.size());
  EXPECT_EQ(sizes(*backend), (std::vector<int>{kThreshold, kHalf - 1, 2}));
  EXPECT_EQ(counts.delta(), (std::vector<double>{1, 0, 2, 0}));
}

/// How one driver formed a launch sequence: its batch sizes, in order, and
/// the close counts (threshold, early, flush) it published.
struct Formation {
  std::vector<int> sizes;
  std::vector<double> closes;
};

std::vector<double> close_counts() {
  const std::vector<double> all = CloseCounts::read();
  return {all[0], all[1], all[2]};
}

/// `stream` formed by the queue simulator and by a backend serving `mix`,
/// each on a cleared registry. Launch i arrives at i ms; the batch timeout
/// falls after the last arrival, so only the trace's end flushes, where the
/// backend is flushed.
std::pair<Formation, Formation> simulated_and_served(
    const std::vector<workloads::InstanceSpec>& mix,
    const std::vector<workloads::InstanceSpec>& stream,
    const gpusim::FluidEngine& engine, const power::GpuPowerModel& model) {
  std::map<std::string, workloads::InstanceSpec> catalogue;
  for (const auto& spec : mix) catalogue.emplace(spec.name, spec);
  std::vector<Request> trace;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    trace.push_back({1e-3 * static_cast<double>(i), stream[i].name,
                     static_cast<int>(i)});
  }
  QueueSimOptions options;
  options.batch_threshold = kThreshold;
  options.batch_timeout = common::Duration::from_seconds(1.0);

  obs::Registry::instance().clear();
  Formation simulated;
  simulated.sizes =
      QueueSimulator(engine, model, catalogue, options).run(trace).batch_sizes;
  simulated.closes = close_counts();

  // The simulator's launches: the spec's h2d bytes staged in 4 API
  // messages, owned by "user<i>".
  obs::Registry::instance().clear();
  BackendOptions backend_options;
  backend_options.batch_threshold = kThreshold;
  Backend backend(engine, model, served_mix(mix), backend_options);
  std::vector<std::shared_ptr<ReplyChannel>> waiters;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    LaunchRequest req;
    req.owner = "user" + std::to_string(i);
    req.request_id = i;
    req.desc = stream[i].gpu;
    req.staged_bytes =
        static_cast<std::size_t>(stream[i].gpu.h2d_bytes.bytes());
    req.api_messages = 4;
    req.reply = waiters.emplace_back(std::make_shared<ReplyChannel>());
    EXPECT_TRUE(backend.channel().send(std::move(req)));
  }
  backend.flush();
  for (const auto& w : waiters) {
    EXPECT_TRUE(w->receive_for(common::Duration::from_seconds(60.0)));
  }
  Formation served;
  served.sizes = batch_sizes(backend.reports());
  served.closes = close_counts();
  backend.shutdown();
  return {simulated, served};
}

TEST_F(CloseRuleTest, QueueSimulatorFormsTheBackendsBatches) {
  // The launch sequences of KmeansStreamClosesAtHalfAfterTheFirstFullBatch,
  // TwoToOneMixClosesWhereTheSameMixReferenceSays and, up to its flush,
  // FlushAndShutdownCloseWhatIsPending.
  const auto kmeans = workloads::kmeans_256k();
  const std::vector two_one_mix{workloads::encryption_6k(),
                                workloads::sorting_6k()};
  struct Case {
    const char* name;
    std::vector<workloads::InstanceSpec> mix;
    std::vector<workloads::InstanceSpec> stream;
    Formation expected;
  };
  for (const Case& c :
       {Case{"kmeans",
             {kmeans},
             repeat(kmeans, 3 * kThreshold),
             {{kThreshold, kHalf, kHalf, kHalf, kHalf}, {1, 4, 0}}},
        Case{"2:1", two_one_mix, two_to_one(3 * kThreshold),
             {{kThreshold, 11, 12, 9}, {1, 2, 1}}},
        Case{"flush",
             {kmeans},
             repeat(kmeans, kThreshold + kHalf - 1),
             {{kThreshold, kHalf - 1}, {1, 0, 1}}}}) {
    SCOPED_TRACE(c.name);
    const auto [simulated, served] =
        simulated_and_served(c.mix, c.stream, *engine_, *model_);
    EXPECT_EQ(served.sizes, c.expected.sizes);
    EXPECT_EQ(served.closes, c.expected.closes);
    EXPECT_EQ(simulated.sizes, served.sizes);
    EXPECT_EQ(simulated.closes, served.closes);
  }
}

TEST_F(CloseRuleTest, EarlyClosedGroupMatchesAFreshBackendsFlush) {
  const auto spec = workloads::kmeans_256k();
  auto gated = make_backend({spec});
  auto first = send(*gated, repeat(spec, kThreshold));
  EXPECT_EQ(collect(first).size(), first.size());
  // The same half batch (owners, ids, accounting) on both backends.
  auto early = send(*gated, repeat(spec, kHalf), 1000);
  const auto early_replies = collect(early);
  ASSERT_EQ(sizes(*gated), (std::vector<int>{kThreshold, kHalf}));

  auto fresh = make_backend({spec});
  auto flushed = send(*fresh, repeat(spec, kHalf), 1000);
  fresh->flush();
  const auto flushed_replies = collect(flushed);

  ASSERT_EQ(early_replies.size(), flushed_replies.size());
  for (std::size_t i = 0; i < early_replies.size(); ++i) {
    const auto& a = early_replies[i];
    const auto& b = flushed_replies[i];
    EXPECT_EQ(a.request_id, b.request_id);
    EXPECT_EQ(a.owner, b.owner);
    EXPECT_EQ(a.where, b.where);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.finish_time.seconds()),
              std::bit_cast<std::uint64_t>(b.finish_time.seconds()));
  }
  expect_same_report(gated->reports().back(), fresh->reports().back());
  gated->shutdown();
  fresh->shutdown();
}

TEST_F(CloseRuleTest, MemoizedChecksDecideAsFreshOnes) {
  const auto kmeans = workloads::kmeans_256k();
  for (const auto& [stream, mix] :
       {std::pair{two_to_one(5 * kThreshold),
                  std::vector{workloads::encryption_6k(),
                              workloads::sorting_6k()}},
        std::pair{repeat(kmeans, 5 * kThreshold), std::vector{kmeans}}}) {
    SCOPED_TRACE(mix.size() == 1 ? "kmeans" : "2:1");
    auto backend = make_backend(mix);
    auto waiters = send(*backend, stream);
    backend->flush();
    EXPECT_EQ(collect(waiters).size(), waiters.size());
    // Later batches repeat the pending batches of earlier ones, so checks
    // were answered from the memo...
    EXPECT_GT(close_cache()[0], 0.0);
    // ...and still closed where the oracle, which evaluates every check
    // fresh, closes.
    const std::vector<workloads::InstanceSpec> tail(
        stream.begin() + kThreshold, stream.end());
    std::vector<int> expected{kThreshold};
    for (const int size : predicted_sizes(tail)) expected.push_back(size);
    EXPECT_EQ(sizes(*backend), expected);
    // Each batch, its groups or parts with their memoized evaluations
    // included, is what a fresh backend makes of the same launches on a
    // flush, bit for bit.
    const auto reports = backend->reports();
    std::size_t first = 0;
    std::size_t next_report = 0;
    for (const int size : sizes(*backend)) {
      const std::vector<workloads::InstanceSpec> launches(
          stream.begin() + static_cast<std::ptrdiff_t>(first),
          stream.begin() + static_cast<std::ptrdiff_t>(first + size));
      auto fresh = make_backend(mix);
      auto fresh_waiters = send(*fresh, launches, first);
      fresh->flush();
      EXPECT_EQ(collect(fresh_waiters).size(), fresh_waiters.size());
      for (const BatchReport& want : fresh->reports()) {
        ASSERT_LT(next_report, reports.size());
        expect_same_report(reports[next_report++], want);
      }
      fresh->shutdown();
      first += static_cast<std::size_t>(size);
    }
    EXPECT_EQ(first, stream.size());
    EXPECT_EQ(next_report, reports.size());
    backend->shutdown();
  }
}

TEST_F(CloseRuleTest, DeclinedChecksAreNotMemoized) {
  // No template covers kmeans, so every check declines: nothing closes
  // early and nothing is memoized, though the same pending batches recur.
  const auto spec = workloads::kmeans_256k();
  BackendOptions options;
  options.batch_threshold = kThreshold;
  Backend backend(*engine_, *model_, TemplateRegistry{}, options);
  backend.set_cpu_profile(spec.gpu.name, spec.cpu);
  CloseCounts counts;
  auto waiters = send(backend, repeat(spec, 3 * kThreshold));
  backend.flush();
  EXPECT_EQ(collect(waiters).size(), waiters.size());
  // Uncovered launches run one to a group: 48 reports, from three batches
  // that each closed at the threshold.
  EXPECT_EQ(backend.reports().size(), 3u * kThreshold);
  const double checks = 2.0 * (kThreshold - kHalf);
  EXPECT_EQ(counts.delta(), (std::vector<double>{3, 0, 0, checks}));
  EXPECT_EQ(close_cache(), (std::vector<double>{0, checks}));
  backend.shutdown();
}

/// Arms a scenario for one test and disarms it after.
class ArmGuard {
 public:
  ArmGuard(const std::string& scenario, std::uint64_t seed) {
    std::string error;
    armed_ = fault::Injector::instance().arm(scenario, seed, &error);
    EXPECT_TRUE(armed_) << error;
  }
  ~ArmGuard() { fault::Injector::instance().disarm(); }
  bool armed() const { return armed_; }

 private:
  bool armed_ = false;
};

TEST_F(CloseRuleTest, CheckMakesNoDecideFaultDraw) {
  const auto spec = workloads::kmeans_256k();
  auto backend = make_backend({spec});
  // The third decide draw fails. Groups draw once each, checks never: the
  // third group degrades. Had the check of the second batch drawn, the
  // second group would have.
  ArmGuard guard("decision.decide=fail:after=2:times=1", 0);
  ASSERT_TRUE(guard.armed());
  obs::Counter degraded =
      obs::Registry::instance().counter("server.degraded_decisions");
  const double degraded_before = degraded.value();
  auto waiters = send(*backend, repeat(spec, 3 * kThreshold));
  backend->flush();
  EXPECT_EQ(collect(waiters).size(), waiters.size());
  const auto reports = backend->reports();
  ASSERT_EQ(sizes(*backend),
            (std::vector<int>{kThreshold, kHalf, kHalf, kHalf, kHalf}));
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].degraded, i == 2) << "group " << i;
  }
  // The third group closed on a memoized check (the second group's pending
  // batch recurs) and still drew once. Faults never reach the memo: the
  // checks miss once and hit on every later half batch.
  EXPECT_EQ(close_cache(), (std::vector<double>{3, 1}));
  EXPECT_EQ(fault::Injector::instance().fired("decision.decide"), 1u);
  EXPECT_EQ(degraded.value() - degraded_before, 1.0);
  backend->shutdown();
}

TEST_F(CloseRuleTest, SeededDecideFaultsReplayUnchanged) {
  const auto spec = workloads::kmeans_256k();
  const std::string scenario = "decision.decide=fail:p=0.3";
  constexpr std::uint64_t kSeed = 11;
  constexpr int kDraws = 5;
  // The schedule the seed gives: which of the first draws fail.
  std::vector<bool> schedule;
  {
    ArmGuard guard(scenario, kSeed);
    for (int i = 0; i < kDraws; ++i) {
      schedule.push_back(fault::hit("decision.decide").kind ==
                         fault::ActionKind::kFail);
    }
  }
  auto backend = make_backend({spec});
  ArmGuard guard(scenario, kSeed);
  CloseCounts counts;
  auto waiters = send(*backend, repeat(spec, 3 * kThreshold));
  backend->flush();
  EXPECT_EQ(collect(waiters).size(), waiters.size());
  const auto reports = backend->reports();
  // The seed lets the first group decide, so the later batches are checked.
  EXPECT_GT(counts.delta()[1], 0.0);
  // One draw per group, in group order, as if no check had run.
  ASSERT_LE(reports.size(), schedule.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].degraded, schedule[i]) << "group " << i;
  }
  backend->shutdown();
}

}  // namespace
}  // namespace ewc::consolidate
