// Extension E8: the batching-threshold trade-off (paper Section VII).
//
// The backend consolidates when pending kernels reach 10 x #GPUs, a number
// the paper says "can be adjusted based on further observation". This bench
// makes that observation: the same Poisson request trace is replayed through
// the queue simulator, which forms batches as the daemon does, at several
// thresholds, reporting request latency vs energy — the knob's actual
// trade-off curve.
#include "bench/bench_common.hpp"

#include "common/thread_pool.hpp"
#include "consolidate/queue_sim.hpp"
#include "loadgen/loadgen.hpp"

int main(int argc, char** argv) {
  using namespace ewc;
  bench::Harness h;

  bench::header("Extension: batching-threshold sweep",
                "paper uses threshold = 10 x #GPUs, \"can be adjusted\"");

  std::map<std::string, workloads::InstanceSpec> catalogue;
  for (auto spec : {workloads::encryption_12k(), workloads::sorting_6k(),
                    workloads::t56_blackscholes()}) {
    catalogue.emplace(spec.name, std::move(spec));
  }
  const auto requests = loadgen::poisson_requests(
      {{"encryption_12k", 4.0}, {"sorting_6k", 2.0}, {"blackscholes", 1.0}},
      /*rate=*/1.5, /*expected_requests=*/90, /*seed=*/7);
  std::cout << requests.size() << " requests at ~1.5 req/s over "
            << bench::fmt(requests.back().arrival_seconds, 0) << " s\n\n";

  common::TextTable t({"threshold", "batches", "mean latency (s)",
                       "p95 latency (s)", "makespan (s)", "energy (J)",
                       "J/request"});
  // Sweep points are independent replays: run them on the shared pool and
  // collect per-index results so row order stays deterministic.
  const std::vector<int> thresholds{1, 2, 5, 10, 20, 45};
  std::vector<consolidate::QueueSimResult> results(thresholds.size());
  common::ThreadPool::shared().parallel_for(
      0, thresholds.size(), [&](std::size_t i) {
        consolidate::QueueSimOptions opt;
        opt.batch_threshold = thresholds[i];
        opt.batch_timeout = common::Duration::from_seconds(60.0);
        consolidate::QueueSimulator sim(h.engine, h.training.model, catalogue,
                                        opt);
        results[i] = sim.run(requests);
      });
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    const auto& r = results[i];
    t.add_row({std::to_string(thresholds[i]), std::to_string(r.batch_sizes.size()),
               bench::fmt(r.mean_latency_seconds, 1),
               bench::fmt(r.p95_latency_seconds, 1),
               bench::fmt(r.makespan.seconds(), 1),
               bench::fmt(r.energy.joules(), 0),
               bench::fmt(r.energy.joules() /
                              static_cast<double>(r.outcomes.size()),
                          0)});
  }
  std::cout << t << "\n";
  std::cout << "bigger batches amortize energy per request; latency pays.\n";
  ewc::bench::write_observability_json(argc, argv, "bench_threshold_sweep");
  return 0;
}
