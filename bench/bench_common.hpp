// Shared setup for the paper-reproduction bench harnesses.
//
// Each bench binary regenerates one table or figure of the paper: it builds
// the simulated node, trains the power model exactly as Section VI
// prescribes, runs the experiment, and prints the same rows/series the paper
// reports (plus the paper's own numbers where quoted, for comparison).
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/table.hpp"
#include "consolidate/runner.hpp"
#include "gpusim/engine.hpp"
#include "obs/json.hpp"
#include "obs/jsonl.hpp"
#include "obs/registry.hpp"
#include "power/trainer.hpp"
#include "workloads/paper_configs.hpp"
#include "workloads/rodinia_like.hpp"

namespace ewc::bench {

struct Harness {
  gpusim::FluidEngine engine;
  power::TrainingReport training;
  consolidate::ExperimentRunner runner;

  Harness()
      : engine(),
        training(power::ModelTrainer(engine).train(
            workloads::rodinia_training_kernels())),
        runner(engine, training.model) {}
};

inline std::string fmt(double v, int precision = 1) {
  return common::TextTable::num(v, precision);
}

inline void header(const std::string& title, const std::string& paper_claim) {
  std::cout << "==== " << title << " ====\n";
  if (!paper_claim.empty()) std::cout << "paper: " << paper_claim << "\n";
  std::cout << "\n";
}

/// The observability sidecar path for this run: `--json <path>` (or
/// `--json=<path>`) on the command line, else the EWC_BENCH_JSON environment
/// variable, else empty (no sidecar).
inline std::string observability_json_path(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) return argv[i + 1];
    if (arg.rfind("--json=", 0) == 0) return arg.substr(7);
  }
  if (const char* env = std::getenv("EWC_BENCH_JSON")) return env;
  return {};
}

/// One-line JSON record of everything the run measured: every trace counter
/// plus every histogram with count/mean/p50/p95/p99. Appended (JSON-lines)
/// so repeated runs accumulate a diffable log instead of clobbering each
/// other. Call at the end of main; no-op when no path is configured.
inline void write_observability_json(int argc, char** argv,
                                     const std::string& bench_name) {
  const std::string path = observability_json_path(argc, argv);
  if (path.empty()) return;

  const obs::RegistrySnapshot snap = obs::Registry::instance().snapshot();
  obs::json::Object counters;
  for (const auto& [name, value] : snap.counters) {
    counters.emplace(name, value);
  }
  obs::json::Object histograms;
  for (const auto& [name, h] : snap.histograms) {
    obs::json::Object entry;
    entry.emplace("count", static_cast<double>(h.total));
    entry.emplace("mean", h.mean());
    entry.emplace("p50", h.percentile(50));
    entry.emplace("p95", h.percentile(95));
    entry.emplace("p99", h.percentile(99));
    histograms.emplace(name, std::move(entry));
  }
  obs::json::Object doc;
  doc.emplace("bench", bench_name);
  doc.emplace("counters", std::move(counters));
  doc.emplace("histograms", std::move(histograms));

  // One atomic O_APPEND write per datapoint: bench binaries running in
  // parallel (CI shards, sweep scripts) append to the same log, and a
  // buffered ofstream could interleave partial lines between them.
  std::string err;
  if (!obs::append_jsonl_line(path, obs::json::Value(std::move(doc)).dump(),
                              &err)) {
    std::cerr << "bench: " << err << "\n";
    return;
  }
  std::cout << "observability JSON appended to " << path << "\n";
}

}  // namespace ewc::bench
