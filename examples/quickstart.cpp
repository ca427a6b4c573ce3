// Quickstart: the library in ~80 lines.
//
// 1. Build the simulated Tesla C1060 node.
// 2. Take the paper's GPU power model, fitted offline on the Rodinia-like
//    kernels (examples/power_training.cpp runs that fit).
// 3. Take 6 encryption requests from 6 "users" and compare the four
//    execution setups (CPU / serial GPU / manual / dynamic framework).
//
// Run:  ./build/examples/quickstart
#include <iostream>

#include "common/table.hpp"
#include "consolidate/runner.hpp"
#include "gpusim/engine.hpp"
#include "power/power_model.hpp"
#include "workloads/paper_configs.hpp"

int main() {
  using namespace ewc;

  // The simulated heterogeneous node: dual Xeon E5520 + Tesla C1060.
  gpusim::FluidEngine engine;

  // The Section VI power model for this node, fitted offline (10 training
  // kernels, 1 Hz meter) and pinned.
  const power::GpuPowerModel model = power::default_device_model();
  std::cout << "power model trained: R^2 = " << model.fit().r_squared
            << "\n\n";

  // Six users each submit one 12 KB AES encryption request.
  const workloads::InstanceSpec spec = workloads::encryption_12k();
  std::vector<consolidate::WorkloadMix> mix{{spec, 6}};

  consolidate::ExperimentRunner runner(engine, model);
  const consolidate::ComparisonResult r = runner.compare(mix);

  common::TextTable table({"setup", "time (s)", "energy (J)"});
  auto row = [&](const char* name, const consolidate::SetupResult& s) {
    table.add_row({name, common::TextTable::num(s.time.seconds()),
                   common::TextTable::num(s.energy.joules())});
  };
  row("CPU (8 cores)", r.cpu);
  row("GPU serial", r.serial_gpu);
  row("GPU manual consolidation", r.manual);
  row("GPU dynamic framework", r.dynamic_framework);
  std::cout << "6 x encryption (12 KB):\n" << table << "\n";

  if (!r.dynamic_reports.empty() && r.dynamic_reports.front().decision) {
    const auto& d = *r.dynamic_reports.front().decision;
    std::cout << "decision engine chose: "
              << consolidate::alternative_name(d.chosen) << "\n";
    for (const auto& e : d.estimates) {
      std::cout << "  " << consolidate::alternative_name(e.which)
                << ": predicted " << e.time.seconds() << " s, "
                << e.charge.joules() << " J charged"
                << (e.feasible ? "" : " (infeasible)") << "\n";
    }
  }
  return 0;
}
