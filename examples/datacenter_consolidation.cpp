// Datacenter scenario: many users stream requests to known applications
// (the paper's target environment, Section I).
//
// A Poisson trace of mixed enterprise requests arrives; the backend batches
// them at the paper's threshold (10 x #GPUs), asks the decision engine where
// each batch should run, and executes. The example reports per-batch
// decisions and the end-to-end energy against an all-CPU and an
// all-serial-GPU deployment.
//
// Run:  ./build/examples/datacenter_consolidation
#include <iostream>
#include <map>

#include "common/table.hpp"
#include "consolidate/runner.hpp"
#include "gpusim/engine.hpp"
#include "loadgen/loadgen.hpp"
#include "power/power_model.hpp"
#include "workloads/paper_configs.hpp"

int main() {
  using namespace ewc;

  gpusim::FluidEngine engine;
  const power::GpuPowerModel model = power::default_device_model();
  consolidate::ExperimentRunner runner(engine, model);

  // The application catalogue users can hit, with popularities.
  std::map<std::string, workloads::InstanceSpec> catalogue;
  for (auto spec : {workloads::encryption_12k(), workloads::sorting_6k(),
                    workloads::t56_search(), workloads::t56_blackscholes(),
                    workloads::t78_montecarlo()}) {
    catalogue.emplace(spec.name, std::move(spec));
  }
  const std::vector<std::pair<std::string, double>> mix{
      {"encryption_12k", 4.0},
      {"sorting_6k", 3.0},
      {"search", 1.5},
      {"blackscholes", 1.0},
      {"montecarlo", 0.5}};

  // About 60 requests at 2 req/s; batches of 10 (the paper's threshold for
  // 1 GPU), the last one holding whatever is left.
  const auto requests = loadgen::poisson_requests(mix, 2.0, 60, 2026);
  std::vector<std::vector<std::string>> batches;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (i % 10 == 0) batches.emplace_back();
    batches.back().push_back(requests[i].workload);
  }
  std::cout << requests.size() << " requests over "
            << requests.back().arrival_seconds << " s -> " << batches.size()
            << " batches of up to 10\n\n";

  common::TextTable t({"batch", "workload mix", "decision", "time (s)",
                       "energy (J)", "CPU-only (J)", "serial-GPU (J)"});
  double total_dyn = 0.0, total_cpu = 0.0, total_serial = 0.0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    // Count instances per workload in this batch.
    std::map<std::string, int> counts;
    for (const auto& w : batches[b]) counts[w] += 1;
    std::vector<consolidate::WorkloadMix> wmix;
    std::string label;
    for (const auto& [name, count] : counts) {
      wmix.push_back({catalogue.at(name), count});
      label += std::to_string(count) + "x" + name.substr(0, 4) + " ";
    }

    std::vector<consolidate::BatchReport> reports;
    const auto dyn = runner.run_dynamic(wmix, &reports);
    const auto cpu = runner.run_cpu(wmix);
    const auto serial = runner.run_serial(wmix);
    total_dyn += dyn.energy.joules();
    total_cpu += cpu.energy.joules();
    total_serial += serial.energy.joules();

    std::string decision = "individual";
    if (!reports.empty() && reports.front().decision) {
      decision =
          consolidate::alternative_name(reports.front().decision->chosen);
    }
    t.add_row({std::to_string(b), label, decision,
               common::TextTable::num(dyn.time.seconds(), 1),
               common::TextTable::num(dyn.energy.joules(), 0),
               common::TextTable::num(cpu.energy.joules(), 0),
               common::TextTable::num(serial.energy.joules(), 0)});
  }
  std::cout << t << "\n";
  std::cout << "total energy: framework " << common::TextTable::num(total_dyn, 0)
            << " J vs CPU-only " << common::TextTable::num(total_cpu, 0)
            << " J (" << common::TextTable::num(total_cpu / total_dyn, 1)
            << "x) vs serial-GPU " << common::TextTable::num(total_serial, 0)
            << " J (" << common::TextTable::num(total_serial / total_dyn, 1)
            << "x)\n";
  return 0;
}
