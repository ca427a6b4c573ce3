// Many-frontends stress test for the consolidation backend: 8+ concurrent
// producers firing launches while flushes race the batching threshold.
// Carries the ctest label "sanitize" so -DEWC_SANITIZE=thread builds
// exercise it under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "consolidate/backend.hpp"
#include "power/power_model.hpp"
#include "workloads/paper_configs.hpp"

namespace ewc::consolidate {
namespace {

constexpr int kProducers = 8;
constexpr int kLaunchesPerProducer = 5;

std::unique_ptr<Backend> make_backend(const gpusim::FluidEngine& engine,
                                      const power::GpuPowerModel& model,
                                      int threshold) {
  const auto spec = workloads::encryption_12k();
  BackendOptions options;
  options.batch_threshold = threshold;
  auto templates = TemplateRegistry::paper_defaults();
  ConsolidationTemplate t;
  t.name = "stress_mix";
  t.kernels.insert(spec.gpu.name);
  templates.add(std::move(t));
  auto backend = std::make_unique<Backend>(engine, model, std::move(templates),
                                           options);
  backend->set_cpu_profile(spec.gpu.name, spec.cpu);
  return backend;
}

TEST(BackendStressTest, ManyProducersWithRacingFlushes) {
  gpusim::FluidEngine engine;
  const power::GpuPowerModel model = power::default_device_model();
  // An odd threshold below the total so batches form both by threshold and
  // by racing flushes.
  auto backend = make_backend(engine, model, /*threshold=*/7);
  const auto spec = workloads::encryption_12k();

  // Flushes race the producers the whole time.
  std::atomic<bool> stop{false};
  std::thread flusher([&] {
    while (!stop.load()) {
      backend->flush();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> producers;
  std::vector<std::vector<std::shared_ptr<ReplyChannel>>> waiters(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kLaunchesPerProducer; ++i) {
        LaunchRequest req;
        char owner[32];
        std::snprintf(owner, sizeof owner, "p%02d#%04d", p, i);
        req.owner = owner;
        req.desc = spec.gpu;
        req.api_messages = 1;
        req.reply = std::make_shared<ReplyChannel>();
        waiters[static_cast<std::size_t>(p)].push_back(req.reply);
        ASSERT_TRUE(backend->channel().send(std::move(req)));
      }
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true);
  flusher.join();
  backend->flush();  // everything still pending processes now

  // Every producer's every launch got a successful reply.
  int replies = 0;
  for (auto& per_producer : waiters) {
    for (auto& waiter : per_producer) {
      const auto reply =
          waiter->receive_for(common::Duration::from_seconds(30.0));
      ASSERT_TRUE(reply.has_value());
      EXPECT_TRUE(reply->ok) << reply->error;
      EXPECT_GT(reply->finish_time.seconds(), 0.0);
      ++replies;
    }
  }
  EXPECT_EQ(replies, kProducers * kLaunchesPerProducer);

  // The reports cover exactly the submitted instances, however the racing
  // flushes happened to partition them.
  int instances = 0;
  for (const auto& r : backend->reports()) instances += r.num_instances;
  EXPECT_EQ(instances, kProducers * kLaunchesPerProducer);

  backend->shutdown();
}

TEST(BackendStressTest, ShutdownUnderLoadFailsUnprocessedCleanly) {
  gpusim::FluidEngine engine;
  const power::GpuPowerModel model = power::default_device_model();
  auto backend = make_backend(engine, model, /*threshold=*/1000);
  const auto spec = workloads::encryption_12k();

  // Park a handful of launches below the threshold, then close the channel
  // out from under the worker (a crashing embedder): every reply channel
  // must still get an answer — an error, not a hang.
  std::vector<std::shared_ptr<ReplyChannel>> waiters;
  for (int i = 0; i < 6; ++i) {
    LaunchRequest req;
    char owner[32];
    std::snprintf(owner, sizeof owner, "orphan#%04d", i);
    req.owner = owner;
    req.desc = spec.gpu;
    req.api_messages = 1;
    req.reply = std::make_shared<ReplyChannel>();
    waiters.push_back(req.reply);
    ASSERT_TRUE(backend->channel().send(std::move(req)));
  }
  backend->channel().close();
  for (auto& waiter : waiters) {
    const auto reply =
        waiter->receive_for(common::Duration::from_seconds(30.0));
    ASSERT_TRUE(reply.has_value());
    EXPECT_FALSE(reply->ok);
    EXPECT_FALSE(reply->error.empty());
  }
}

}  // namespace
}  // namespace ewc::consolidate
