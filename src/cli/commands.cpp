#include "cli/commands.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "cli/args.hpp"
#include "common/thread_pool.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/histogram.hpp"
#include "obs/shard_scope.hpp"
#include "obs/tracer.hpp"
#include "consolidate/queue_sim.hpp"
#include "consolidate/runner.hpp"
#include "cudart/runtime.hpp"
#include "fault/injector.hpp"
#include "gpusim/engine.hpp"
#include "loadgen/loadgen.hpp"
#include "loadgen/trajectory.hpp"
#include "perf/consolidation_model.hpp"
#include "perf/hong_kim.hpp"
#include "power/power_model.hpp"
#include "ptx/analyzer.hpp"
#include "router/router.hpp"
#include "ptx/parser.hpp"
#include "ptx/samples.hpp"
#include "server/client.hpp"
#include "server/remote_frontend.hpp"
#include "server/server.hpp"
#include "workloads/paper_configs.hpp"

namespace ewc::cli {

namespace {

using SpecMap = std::map<std::string, workloads::InstanceSpec>;

/// The catalogue workload `name`, calibrated now.
workloads::InstanceSpec find_spec(const std::string& name) {
  if (auto spec = workloads::find_workload(name)) return *std::move(spec);
  throw ArgsError("unknown workload '" + name +
                  "' (run `ewcsim list` for the catalogue)");
}

std::vector<consolidate::WorkloadMix> parse_mix(const FlagParser& flags) {
  std::vector<consolidate::WorkloadMix> mix;
  for (const auto& token : flags.values("workload")) {
    auto [name, count] = parse_workload_count(token);
    mix.push_back({find_spec(name), count});
  }
  if (mix.empty()) {
    throw ArgsError("at least one --workload name[=count] is required");
  }
  return mix;
}

std::string padded_owner(const std::string& name, int idx) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "#%04d", idx);
  return name + buf;
}

/// Bit-exact text form of a double (IEEE-754 bits, little-endian hex), so
/// test harnesses can compare results across processes without rounding.
std::string f64_bits(double v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

server::Server* g_serve_instance = nullptr;
router::Router* g_route_instance = nullptr;

void serve_signal_handler(int) {
  // Async-signal-safe: notify_stop only writes one eventfd word.
  if (g_serve_instance != nullptr) g_serve_instance->notify_stop();
  if (g_route_instance != nullptr) g_route_instance->notify_stop();
}

/// Shared --trace-out flag spec for commands that can record a trace.
FlagSpec trace_out_spec() {
  return {"trace-out", "enable tracing; write Chrome-trace JSON here on exit",
          false, false};
}

/// Turn the tracer on when --trace-out was given. Call right after parse so
/// the whole command's lifetime is covered.
void maybe_enable_tracing(const FlagParser& flags) {
  if (flags.value("trace-out").has_value()) {
    obs::Tracer::instance().set_enabled(true);
  }
}

/// Export the recorded trace to the --trace-out path, if any. Runs after the
/// command's work (for `serve`, that is after the SIGTERM-triggered drain
/// finished — the daemon's shutdown path still produces a trace file).
void maybe_export_trace(const FlagParser& flags,
                        const std::string& process_name, std::ostream& out) {
  const auto path = flags.value("trace-out");
  if (!path.has_value()) return;
  std::string error;
  if (obs::export_chrome_trace_file(*path, process_name, &error)) {
    const auto wrapped = obs::Tracer::instance().wrapped();
    out << "TRACE wrote " << *path;
    if (wrapped > 0) out << " (" << wrapped << " events lost to ring wrap)";
    out << "\n";
  } else {
    out << "TRACE export FAILED: " << error << "\n";
  }
}

std::string ptx_sample(const std::string& name) {
  if (name == "aes_encrypt") return std::string(ptx::samples::aes_encrypt());
  if (name == "bitonic_sort") return std::string(ptx::samples::bitonic_sort());
  if (name == "search") return std::string(ptx::samples::search());
  if (name == "blackscholes") {
    return std::string(ptx::samples::blackscholes());
  }
  if (name == "montecarlo") return std::string(ptx::samples::montecarlo());
  throw ArgsError("unknown PTX sample '" + name +
                  "' (aes_encrypt, bitonic_sort, search, blackscholes, "
                  "montecarlo)");
}

}  // namespace

std::string main_usage() {
  return
      "ewcsim — energy-aware GPU workload consolidation simulator\n"
      "usage: ewcsim <command> [flags]\n"
      "commands:\n"
      "  list       show the calibrated workload catalogue\n"
      "  compare    run a mix under CPU / serial / manual / dynamic setups\n"
      "  predict    performance & power model predictions for a workload\n"
      "  trace      replay a Poisson request trace (--requests is the\n"
      "             expected count) through the queue simulator\n"
      "  ptx        statically analyze PTX into model inputs\n"
      "  timeline   export a consolidated run's occupancy timeline\n"
      "  cache-stats  replay a trace cache-off vs cache-on and report\n"
      "               hit/miss/eviction counts, speedup and output parity\n"
      "  serve      run one consolidation daemon shard (ewcd) on a UNIX\n"
      "             or TCP endpoint\n"
      "  route      front N ewcd shards, packing sessions onto the fewest\n"
      "             shards with headroom so batches fill fast\n"
      "  client     launch workloads against a running daemon or router\n"
      "  stats      print a live counter/histogram snapshot from a daemon\n"
      "             or router (per-shard breakdown)\n"
      "  top        live time-series dashboard (rps, p95, watts, J/request\n"
      "             with sparklines) for a daemon or router fleet\n"
      "  loadgen    open-loop traffic harness against a daemon; emits a\n"
      "             BENCH_ewcd.json perf-trajectory datapoint\n"
      "  trace-merge  merge Chrome-trace JSONs (client + server) into one\n";
}

int cmd_list(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser flags({});
  flags.parse(args);
  common::TextTable t({"workload", "blocks", "thr/blk", "paper GPU (s)",
                       "paper CPU (s)"});
  for (const workloads::CatalogueEntry& entry :
       workloads::workload_catalogue()) {
    const workloads::InstanceSpec spec = entry.make();
    t.add_row({std::string(entry.name), std::to_string(spec.gpu.num_blocks),
               std::to_string(spec.gpu.threads_per_block),
               common::TextTable::num(spec.paper_gpu_seconds, 1),
               common::TextTable::num(spec.paper_cpu_seconds, 1)});
  }
  out << t;
  return 0;
}

int cmd_compare(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser flags({
      {"workload", "name[=count], repeatable", false, true},
      {"csv", "also write the rows to this CSV file", false, false},
  });
  flags.parse(args);
  const auto mix = parse_mix(flags);

  gpusim::FluidEngine engine;
  const power::GpuPowerModel model = power::default_device_model();
  consolidate::ExperimentRunner runner(engine, model);
  const auto r = runner.compare(mix);

  common::TextTable t({"setup", "time (s)", "energy (J)"});
  common::CsvWriter csv({"setup", "time_s", "energy_j"});
  auto row = [&](const char* name, const consolidate::SetupResult& s) {
    t.add_row({name, common::TextTable::num(s.time.seconds(), 2),
               common::TextTable::num(s.energy.joules(), 0)});
    csv.add_row({name, std::to_string(s.time.seconds()),
                 std::to_string(s.energy.joules())});
  };
  // The paper's CPU baseline, measured with the GPU disconnected; and what
  // the daemon charges for the same run, with the idle GPU still installed.
  row("cpu", r.cpu);
  row("cpu-charged",
      {r.cpu.time, r.cpu.energy + consolidate::gpu_idle_adder(
                                      engine.energy_config()) *
                                      r.cpu.time});
  row("serial-gpu", r.serial_gpu);
  row("manual-consolidated", r.manual);
  row("dynamic-framework", r.dynamic_framework);
  // What the framework adds to the alternative it runs: the node's idle
  // draw through its staging and coordination overhead.
  common::Duration overhead = common::Duration::zero();
  for (const auto& report : r.dynamic_reports) overhead += report.overhead;
  row("framework-overhead",
      {overhead, engine.energy_config().system_idle_with_gpu * overhead});
  out << t;
  if (auto path = flags.value("csv")) {
    csv.write_file(*path);
    out << "wrote " << *path << "\n";
  }
  return 0;
}

int cmd_predict(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser flags({
      {"workload", "workload name from `ewcsim list`", false, false},
      {"count", "instances to consolidate (default 1)", false, false},
  });
  flags.parse(args);
  const auto name = flags.value("workload");
  if (!name.has_value()) throw ArgsError("--workload is required");
  const workloads::InstanceSpec spec = find_spec(*name);
  const int count = flags.get_int_in("count", 1, 1, 1 << 20);

  gpusim::FluidEngine engine;
  gpusim::LaunchPlan plan;
  for (int i = 0; i < count; ++i) {
    plan.instances.push_back(gpusim::KernelInstance{spec.gpu, i, "cli"});
  }

  perf::ConsolidationModel perf_model(engine.device());
  const auto timing = perf_model.predict(plan);
  const auto run = engine.run(plan);

  out << *name << " x " << count << " ("
      << (timing.type == perf::ConsolidationType::kType1 ? "type-1"
                                                         : "type-2")
      << " consolidation)\n";
  out << "  predicted: " << timing.total_time.seconds() << " s (kernel "
      << timing.kernel_time.seconds() << " s)\n";
  out << "  simulated: " << run.total_time.seconds() << " s (kernel "
      << run.kernel_time.seconds() << " s)\n";

  if (count == 1) {
    const auto hk = perf::hong_kim_cycles(engine.device(), spec.gpu);
    out << "  Hong-Kim [8]: " << hk.time(engine.device()).seconds()
        << " s (case " << perf::hong_kim_case_name(hk.which_case)
        << ", MWP " << hk.mwp << ", CWP " << hk.cwp << ")\n";
  }

  const power::GpuPowerModel model = power::default_device_model();
  const auto pw = model.predict(engine.device(), plan, timing);
  out << "  predicted avg system power: " << pw.avg_system_power.watts()
      << " W, energy " << pw.system_energy.joules() << " J\n";
  out << "  simulated energy: " << run.system_energy.joules() << " J\n";
  return 0;
}

int cmd_trace(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser flags({
      {"requests", "expected number of requests (default 60)", false, false},
      {"rate", "arrival rate, req/s (default 2.0)", false, false},
      {"threshold", "batching threshold (default 10)", false, false},
      {"timeout", "batch timeout seconds (default 30)", false, false},
      {"seed", "trace RNG seed (default 2026)", false, false},
  });
  flags.parse(args);
  const int requests = flags.get_int_in("requests", 60, 1, 1 << 24);
  const double rate = flags.get_double_in("rate", 2.0, 1e-9, 1e9);

  gpusim::FluidEngine engine;
  const power::GpuPowerModel model = power::default_device_model();

  SpecMap catalogue;
  for (const char* n : {"encryption_12k", "sorting_6k", "t56_blackscholes"}) {
    catalogue.emplace(n, find_spec(n));
  }
  const auto reqs = loadgen::poisson_requests(
      {{"encryption_12k", 4.0}, {"sorting_6k", 2.0}, {"t56_blackscholes", 1.0}},
      rate, requests, static_cast<std::uint64_t>(flags.get_int("seed", 2026)));

  consolidate::QueueSimOptions opt;
  opt.batch_threshold = flags.get_int_in("threshold", 10, 1, 1 << 20);
  opt.batch_timeout = common::Duration::from_seconds(
      flags.get_double_in("timeout", 30.0, 0.0, 1e9));
  consolidate::QueueSimulator sim(engine, model, catalogue, opt);
  const auto r = sim.run(reqs);

  out << reqs.size() << " requests at " << rate << " req/s, threshold "
      << opt.batch_threshold << ":\n"
      << "  batches:      " << r.batch_sizes.size() << "\n"
      << "  makespan:     " << r.makespan.seconds() << " s\n"
      << "  mean latency: " << r.mean_latency_seconds << " s\n"
      << "  p95 latency:  " << r.p95_latency_seconds << " s\n"
      << "  energy:       " << r.energy.joules() << " J ("
      << (reqs.empty() ? 0.0
                       : r.energy.joules() / static_cast<double>(reqs.size()))
      << " J/request)\n";
  return 0;
}

int cmd_ptx(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser flags({
      {"sample", "built-in sample kernel name", false, false},
      {"file", "path to a .ptx file", false, false},
  });
  flags.parse(args);
  std::string source;
  if (auto sample = flags.value("sample")) {
    source = ptx_sample(*sample);
  } else if (auto path = flags.value("file")) {
    std::ifstream in(*path);
    if (!in) throw ArgsError("cannot open " + *path);
    std::ostringstream buf;
    buf << in.rdbuf();
    source = buf.str();
  } else {
    throw ArgsError("--sample or --file is required");
  }

  const auto module = ptx::parse_module(source);
  common::TextTable t({"kernel", "fp", "int", "sfu", "coal", "uncoal",
                       "shared", "const", "sync", "regs", "smem B"});
  for (const auto& k : module.kernels) {
    const auto a = ptx::analyze_kernel(module, k);
    auto n = [](double v) { return common::TextTable::num(v, 0); };
    t.add_row({k.name, n(a.mix.fp_insts), n(a.mix.int_insts),
               n(a.mix.sfu_insts), n(a.mix.coalesced_mem_insts),
               n(a.mix.uncoalesced_mem_insts), n(a.mix.shared_accesses),
               n(a.mix.const_accesses), n(a.mix.sync_insts),
               std::to_string(a.registers_per_thread),
               std::to_string(a.shared_bytes_per_block)});
  }
  out << t;
  return 0;
}

int cmd_timeline(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser flags({
      {"workload", "name[=count], repeatable", false, true},
      {"csv", "write the timeline to this CSV file", false, false},
  });
  flags.parse(args);
  const auto mix = parse_mix(flags);

  gpusim::FluidEngine engine;
  gpusim::LaunchPlan plan;
  int id = 0;
  for (const auto& m : mix) {
    for (int i = 0; i < m.count; ++i) {
      plan.instances.push_back(gpusim::KernelInstance{m.spec.gpu, id++, ""});
    }
  }
  const auto run = engine.run(plan);

  common::CsvWriter csv({"t_s", "busy_sms", "resident_blocks", "dram_util"});
  for (const auto& s : run.occupancy) {
    csv.add_numeric_row({s.time.seconds(), static_cast<double>(s.busy_sms),
                         static_cast<double>(s.resident_blocks),
                         s.dram_utilization});
  }
  if (auto path = flags.value("csv")) {
    csv.write_file(*path);
    out << "wrote " << csv.rows() << " samples to " << *path << "\n";
  } else {
    csv.write_to(out);
  }
  out << "kernel time " << run.kernel_time.seconds() << " s, avg DRAM util "
      << run.avg_dram_utilization << ", avg SM util "
      << run.avg_sm_utilization << "\n";
  return 0;
}

int cmd_cache_stats(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser flags({
      {"requests", "expected number of requests (default 300)", false,
       false},
      {"rate", "arrival rate, req/s (default 2.0)", false, false},
      {"threshold", "batching threshold (default 10)", false, false},
      {"timeout", "batch timeout seconds (default 30)", false, false},
      {"seed", "trace RNG seed (default 2026)", false, false},
      {"workload", "catalogue name, repeatable (default encryption_12k)",
       false, true},
      {"pool", "decision-engine worker threads (default 0 = off)", false,
       false},
  });
  flags.parse(args);
  const int requests = flags.get_int_in("requests", 300, 1, 1 << 24);
  const double rate = flags.get_double_in("rate", 2.0, 1e-9, 1e9);
  const int pool_threads = flags.get_int_in("pool", 0, 0, 1024);

  std::vector<std::pair<std::string, double>> mix;
  SpecMap catalogue;
  auto names = flags.values("workload");
  if (names.empty()) names.push_back("encryption_12k");
  for (const auto& n : names) {
    catalogue.emplace(n, find_spec(n));
    mix.push_back({n, 1.0});
  }

  gpusim::FluidEngine engine;
  const power::GpuPowerModel model = power::default_device_model();
  const auto reqs = loadgen::poisson_requests(
      mix, rate, requests,
      static_cast<std::uint64_t>(flags.get_int("seed", 2026)));

  consolidate::QueueSimOptions opt;
  opt.batch_threshold = flags.get_int_in("threshold", 10, 1, 1 << 20);
  opt.batch_timeout = common::Duration::from_seconds(
      flags.get_double_in("timeout", 30.0, 0.0, 1e9));
  std::unique_ptr<common::ThreadPool> pool;
  if (pool_threads > 0) {
    pool = std::make_unique<common::ThreadPool>(
        static_cast<std::size_t>(pool_threads));
    opt.pool = pool.get();
  }

  auto replay = [&](bool cached) {
    opt.enable_sim_cache = cached;
    consolidate::QueueSimulator sim(engine, model, catalogue, opt);
    const auto t0 = std::chrono::steady_clock::now();
    auto r = sim.run(reqs);
    const auto t1 = std::chrono::steady_clock::now();
    return std::make_pair(std::move(r),
                          std::chrono::duration<double>(t1 - t0).count());
  };
  const auto [cold, cold_s] = replay(false);
  const auto [warm, warm_s] = replay(true);

  // A cache hit must be bit-identical to a fresh simulation, so the two
  // replays have to agree on every outcome exactly.
  const bool identical = cold.outcomes == warm.outcomes &&
                         cold.batch_sizes == warm.batch_sizes &&
                         cold.makespan.seconds() == warm.makespan.seconds() &&
                         cold.energy.joules() == warm.energy.joules();

  auto row = [](const gpusim::CacheStats& s) {
    std::ostringstream os;
    os << s.hits << " hits / " << s.misses << " misses / " << s.evictions
       << " evictions (hit rate " << s.hit_rate() << ")";
    return os.str();
  };
  out << reqs.size() << " requests, threshold " << opt.batch_threshold
      << ", pool " << pool_threads << ":\n"
      << "  cache off:     " << cold_s << " s\n"
      << "  cache on:      " << warm_s << " s ("
      << (warm_s > 0.0 ? cold_s / warm_s : 0.0) << "x)\n"
      << "  run cache:     " << row(warm.run_cache_stats) << "\n"
      << "  predict cache: " << row(warm.predict_cache_stats) << "\n"
      << "  outputs:       " << (identical ? "identical" : "DIVERGED")
      << "\n";
  return identical ? 0 : 1;
}

int cmd_serve(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser flags({
      {"socket",
       "endpoint to listen on: unix:/path, tcp:host:port, or a bare path",
       false, false},
      {"workload", "name[=count] the daemon will serve, repeatable", false,
       true},
      {"workers", "pump worker threads (default 0 = auto)", false, false},
      {"threshold",
       "batch threshold: a batch runs at this many launches, or, once a "
       "full batch has run, at any arrival that leaves at least half of it "
       "pending when the models predict it charges no more joules per "
       "request than a full batch of the same kernel mix (default: sum of "
       "workload counts)",
       false, false},
      {"max-clients", "concurrent client connections (default 64)", false,
       false},
      {"inflight", "per-client unanswered-launch limit (default 64)", false,
       false},
      {"deadline", "per-request real-time deadline, s (default 0 = off)",
       false, false},
      {"drain-timeout", "drain flush budget, s (default 10)", false, false},
      {"replay-grace",
       "seconds a disconnected replay session's dedup state survives "
       "(default 120)",
       false, false},
      {"metrics-interval",
       "time-series sampler tick, s (default 1; 0 disables the kStats series)",
       false, false},
      {"metrics-history", "points kept per series (default 120)", false,
       false},
      {"decision-deadline",
       "decision-engine wait budget, s; a decide call not answered within "
       "it degrades the group to serial execution (default 0 = off)",
       false, false},
      {"faults",
       "fault-injection scenario, e.g. 'decision.decide=fail:times=2' "
       "(see docs/ROBUSTNESS.md)",
       false, false},
      {"fault-seed", "seed for the fault scenario rng (default 0)", false,
       false},
      trace_out_spec(),
  });
  flags.parse(args);
  maybe_enable_tracing(flags);
  const auto socket_path = flags.value("socket");
  if (!socket_path.has_value()) throw ArgsError("--socket is required");
  if (const auto scenario = flags.value("faults")) {
    const auto seed = static_cast<std::uint64_t>(
        flags.get_int_in("fault-seed", 0, 0, 1 << 30));
    std::string ferr;
    if (!fault::Injector::instance().arm(*scenario, seed, &ferr)) {
      throw ArgsError("--faults: " + ferr);
    }
    out << "FAULTS armed: " << *scenario << " (seed " << seed << ")\n";
  }
  const auto mix = parse_mix(flags);
  int total = 0;
  std::vector<workloads::InstanceSpec> specs;
  for (const auto& m : mix) {
    total += m.count;
    specs.push_back(m.spec);
  }

  gpusim::FluidEngine engine;
  const power::GpuPowerModel model = power::default_device_model();

  // Served as ExperimentRunner::run_dynamic serves it, so a mix served over
  // the socket is bit-identical to the in-process experiment.
  consolidate::BackendOptions options;
  options.batch_threshold =
      flags.get_int_in("threshold", total, 1, 1 << 20);
  options.decision_deadline = common::Duration::from_seconds(
      flags.get_double_in("decision-deadline", 0.0, 0.0, 3600.0));
  consolidate::Backend backend(engine, model, consolidate::served_mix(specs),
                               options);

  server::ServerOptions sopt;
  sopt.socket_path = *socket_path;
  sopt.max_clients = flags.get_int_in("max-clients", 64, 1, 4096);
  sopt.inflight_limit = flags.get_int_in("inflight", 64, 1, 1 << 20);
  sopt.request_deadline = common::Duration::from_seconds(
      flags.get_double_in("deadline", 0.0, 0.0, 86400.0));
  sopt.drain_timeout = common::Duration::from_seconds(
      flags.get_double_in("drain-timeout", 10.0, 0.1, 86400.0));
  sopt.replay_grace = common::Duration::from_seconds(
      flags.get_double_in("replay-grace", 120.0, 0.0, 86400.0));
  sopt.workers = flags.get_int_in("workers", 0, 0, 256);
  sopt.metrics_interval =
      flags.get_double_in("metrics-interval", 1.0, 0.0, 3600.0);
  sopt.metrics_history = static_cast<std::size_t>(
      flags.get_int_in("metrics-history", 120, 2, 1 << 20));

  server::Server server(backend, sopt);
  std::string error;
  if (!server.start(&error)) {
    throw ArgsError("cannot start server: " + error);
  }
  g_serve_instance = &server;
  std::signal(SIGTERM, serve_signal_handler);
  std::signal(SIGINT, serve_signal_handler);

  // The canonical bound endpoint (not the flag text): a tcp:host:0 bind
  // prints the actual port, which test harnesses parse.
  out << "ewcd listening on " << server.endpoint() << " (threshold "
      << options.batch_threshold << ", " << total << " expected instances)\n";
  out.flush();
  server.wait();
  g_serve_instance = nullptr;

  // Bit-exact batch reports, one line each, for cross-process comparison.
  // The drain is done, so they move out instead of being copied.
  for (const auto& r : backend.take_reports()) {
    out << "REPORT n=" << r.num_instances << " tmpl="
        << (r.template_found ? r.template_name : std::string("-"))
        << " executed=" << static_cast<int>(r.executed)
        << " launches=" << r.consolidated_launches
        << " degraded=" << (r.degraded ? 1 : 0)
        << " overhead=" << f64_bits(r.overhead.seconds())
        << " exec=" << f64_bits(r.execution_time.seconds())
        << " total=" << f64_bits(r.total_time.seconds())
        << " energy=" << f64_bits(r.energy.joules()) << " kernels=";
    for (std::size_t i = 0; i < r.kernel_names.size(); ++i) {
      out << (i ? "," : "") << r.kernel_names[i];
    }
    out << "\n";
  }
  out << "TOTAL time=" << f64_bits(backend.total_time().seconds())
      << " energy=" << f64_bits(backend.total_energy().joules()) << "\n";
  backend.shutdown();
  maybe_export_trace(flags, "ewcsim serve", out);
  out << "ewcd drained, exiting\n";
  return 0;
}

int cmd_route(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser flags({
      {"listen",
       "endpoint to serve clients on: unix:/path or tcp:host:port",
       false, false},
      {"shard", "shard endpoint, repeatable (index = flag order)", false,
       true},
      {"poll", "stats-poll interval, s (default 0.5)", false, false},
      {"dial-timeout", "per-shard placement dial budget, s (default 1)",
       false, false},
      {"breaker",
       "consecutive dial failures opening a shard's breaker "
       "(default 2; 0 disables)",
       false, false},
      {"breaker-cooldown", "breaker open time, s (default 3)", false, false},
      {"drain",
       "shard index to drain (new placements avoid it and its idle replay "
       "sessions live-migrate away), repeatable",
       false, true},
      {"drain-after",
       "delay before the --drain list takes effect, s (default 0 = at "
       "startup; lets sessions build up first)",
       false, false},
      {"standby",
       "run as warm standby of the primary router at this endpoint: refuse "
       "hellos, replicate its fleet state, self-promote when it dies",
       false, false},
      {"standby-failures",
       "consecutive failed state pulls before a standby promotes itself "
       "(default 3)",
       false, false},
      {"workers", "pump worker threads (default 0 = auto)", false, false},
      {"metrics-interval",
       "time-series sampler tick, s (default 1; 0 disables the kStats series)",
       false, false},
      {"metrics-history", "points kept per series (default 120)", false,
       false},
      {"faults",
       "fault-injection scenario, e.g. 'router.forward=drop:p=0.01' "
       "(see docs/ROBUSTNESS.md)",
       false, false},
      {"fault-seed", "seed for the fault scenario rng (default 0)", false,
       false},
      trace_out_spec(),
  });
  flags.parse(args);
  maybe_enable_tracing(flags);
  const auto listen = flags.value("listen");
  if (!listen.has_value()) throw ArgsError("--listen is required");
  if (const auto scenario = flags.value("faults")) {
    const auto seed = static_cast<std::uint64_t>(
        flags.get_int_in("fault-seed", 0, 0, 1 << 30));
    std::string ferr;
    if (!fault::Injector::instance().arm(*scenario, seed, &ferr)) {
      throw ArgsError("--faults: " + ferr);
    }
    out << "FAULTS armed: " << *scenario << " (seed " << seed << ")\n";
  }

  router::RouterOptions ropt;
  ropt.listen = *listen;
  ropt.shards = flags.values("shard");
  if (ropt.shards.empty()) {
    throw ArgsError("at least one --shard endpoint is required");
  }
  ropt.poll_interval = common::Duration::from_seconds(
      flags.get_double_in("poll", 0.5, 0.05, 3600.0));
  ropt.dial_timeout = common::Duration::from_seconds(
      flags.get_double_in("dial-timeout", 1.0, 0.05, 600.0));
  ropt.breaker_threshold = flags.get_int_in("breaker", 2, 0, 1000);
  ropt.breaker_cooldown = common::Duration::from_seconds(
      flags.get_double_in("breaker-cooldown", 3.0, 0.01, 3600.0));
  ropt.workers = flags.get_int_in("workers", 0, 0, 256);
  ropt.metrics_interval =
      flags.get_double_in("metrics-interval", 1.0, 0.0, 3600.0);
  ropt.metrics_history = static_cast<std::size_t>(
      flags.get_int_in("metrics-history", 120, 2, 1 << 20));
  for (const auto& token : flags.values("drain")) {
    try {
      ropt.drain.push_back(std::stoi(token));
    } catch (const std::exception&) {
      throw ArgsError("--drain: not a shard index: " + token);
    }
  }
  ropt.drain_after_seconds =
      flags.get_double_in("drain-after", 0.0, 0.0, 86400.0);
  ropt.standby_of = flags.value("standby").value_or("");
  ropt.standby_failures = flags.get_int_in("standby-failures", 3, 1, 1000);

  router::Router router(ropt);
  std::string error;
  if (!router.start(&error)) {
    throw ArgsError("cannot start router: " + error);
  }
  g_route_instance = &router;
  std::signal(SIGTERM, serve_signal_handler);
  std::signal(SIGINT, serve_signal_handler);

  out << "router listening on " << router.endpoint() << " fronting "
      << ropt.shards.size() << " shard(s)";
  if (!ropt.standby_of.empty()) {
    out << " (standby of " << ropt.standby_of << ")";
  }
  if (!ropt.drain.empty()) {
    out << " (draining";
    for (const int i : ropt.drain) out << " " << i;
    if (ropt.drain_after_seconds > 0.0) {
      out << " after " << ropt.drain_after_seconds << "s";
    }
    out << ")";
  }
  out << "\n";
  out.flush();
  router.wait();
  g_route_instance = nullptr;
  maybe_export_trace(flags, "ewcsim route", out);
  out << "router stopped\n";
  return 0;
}

int cmd_client(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser flags({
      {"socket",
       "daemon/router endpoint: unix:/path, tcp:host:port, or a bare path; "
       "comma-separate a failover list (primary,standby)",
       false, false},
      {"workload", "name[=count] to launch, repeatable", false, true},
      {"slot-base", "first global slot index for owner naming (default 0)",
       false, false},
      {"timeout", "reply wait budget per launch, s (default 300)", false,
       false},
      {"connect-timeout", "daemon connect budget, s (default 10)", false,
       false},
      {"flush", "ask the daemon to flush after the launches", true, false},
      {"shutdown", "ask the daemon to drain and exit afterwards", true, false},
      {"reconnect",
       "redial + replay unanswered launches if the daemon drops the "
       "connection",
       true, false},
      {"retry-max", "reconnect dial attempts (default 10)", false, false},
      {"retry-backoff", "initial reconnect backoff, s (default 0.05)", false,
       false},
      {"retry-backoff-max", "backoff cap, s (default 1)", false, false},
      {"breaker",
       "consecutive transport errors before the circuit opens "
       "(default 8; 0 disables)",
       false, false},
      trace_out_spec(),
  });
  flags.parse(args);
  maybe_enable_tracing(flags);
  const auto socket_path = flags.value("socket");
  if (!socket_path.has_value()) throw ArgsError("--socket is required");
  const auto mix = parse_mix(flags);
  const int slot_base = flags.get_int_in("slot-base", 0, 0, 1 << 20);
  const auto reply_timeout = common::Duration::from_seconds(
      flags.get_double_in("timeout", 300.0, 0.1, 86400.0));
  const auto connect_timeout = common::Duration::from_seconds(
      flags.get_double_in("connect-timeout", 10.0, 0.1, 3600.0));
  server::ClientOptions client_options;
  client_options.auto_reconnect = flags.get_bool("reconnect");
  client_options.retry.max_attempts =
      flags.get_int_in("retry-max", 10, 1, 1000);
  client_options.retry.initial_backoff = common::Duration::from_seconds(
      flags.get_double_in("retry-backoff", 0.05, 0.001, 60.0));
  client_options.retry.max_backoff = common::Duration::from_seconds(
      flags.get_double_in("retry-backoff-max", 1.0, 0.001, 600.0));
  client_options.breaker_threshold = flags.get_int_in("breaker", 8, 0, 1000);
  // Distinct jitter per client process so synchronized redial storms decay.
  client_options.jitter_seed = 0x5eed + static_cast<std::uint64_t>(slot_base);

  // Same registry recipe as run_dynamic: one "precompiled" kernel per spec.
  cudart::KernelRegistry registry;
  int total = 0;
  for (const auto& m : mix) {
    const gpusim::KernelDesc desc = m.spec.gpu;
    registry.register_kernel(
        "spec:" + m.spec.name,
        [desc](const cudart::LaunchConfig&, std::span<const std::byte>) {
          return desc;
        });
    total += m.count;
  }

  std::string error;
  auto conn = server::ClientConnection::connect(
      *socket_path, "client@" + std::to_string(slot_base), connect_timeout,
      client_options, &error);
  if (conn == nullptr) throw ArgsError("cannot connect: " + error);

  // The direct (unintercepted) runtime path needs an engine; with the
  // RemoteFrontend installed every call goes to the daemon instead.
  gpusim::FluidEngine engine;
  cudart::Runtime runtime(engine, &registry);

  // One app thread per instance, mirroring ExperimentRunner::run_dynamic.
  struct InstanceResult {
    std::string owner;
    cudart::wcudaError status = cudart::wcudaError::kSuccess;
    consolidate::CompletionReply reply;
  };
  std::vector<InstanceResult> results(static_cast<std::size_t>(total));
  // --flush goes out once every app thread's launch is on the connection
  // (or the thread gave up before launching), not once every launch is
  // answered: each thread blocks on its own reply, and a remainder under
  // the daemon's threshold runs only on the flush.
  std::latch unsent(total);
  std::vector<std::thread> apps;
  int idx = 0;
  for (const auto& m : mix) {
    for (int i = 0; i < m.count; ++i, ++idx) {
      const int slot = idx;
      const auto spec = m.spec;
      apps.emplace_back([&, spec, slot] {
        // Counts this thread down once: when its launch is on the
        // connection, or when it exits without one.
        struct SentOnce {
          std::latch& unsent;
          bool done = false;
          void mark() {
            if (!std::exchange(done, true)) unsent.count_down();
          }
          ~SentOnce() { mark(); }
        } sent{unsent};
        auto& res = results[static_cast<std::size_t>(slot)];
        cudart::Context ctx(padded_owner(spec.name, slot_base + slot),
                            512u << 20);
        res.owner = ctx.owner();
        server::RemoteFrontend frontend(*conn, ctx.owner(), &registry,
                                        reply_timeout);
        frontend.set_on_launch_sent([&sent] { sent.mark(); });
        ctx.set_interceptor(&frontend);

        auto fail = [&](cudart::wcudaError e) { res.status = e; };

        const std::size_t in_bytes = std::max<std::size_t>(
            16, static_cast<std::size_t>(spec.gpu.h2d_bytes.bytes()));
        const std::size_t out_bytes = std::max<std::size_t>(
            16, static_cast<std::size_t>(spec.gpu.d2h_bytes.bytes()));
        std::vector<std::uint8_t> input(in_bytes, 0xAB);
        std::vector<std::uint8_t> output(out_bytes, 0);

        void* dev = nullptr;
        auto e = runtime.wcudaMalloc(ctx, &dev, std::max(in_bytes, out_bytes));
        if (e != cudart::wcudaError::kSuccess) return fail(e);
        e = runtime.wcudaMemcpy(ctx, dev, input.data(), in_bytes,
                                cudart::MemcpyKind::kHostToDevice);
        if (e != cudart::wcudaError::kSuccess) return fail(e);
        e = runtime.wcudaConfigureCall(
            ctx, cudart::Dim3{static_cast<unsigned>(spec.gpu.num_blocks), 1, 1},
            cudart::Dim3{static_cast<unsigned>(spec.gpu.threads_per_block), 1,
                         1},
            0);
        if (e != cudart::wcudaError::kSuccess) return fail(e);
        const std::uint64_t token =
            static_cast<std::uint64_t>(slot_base + slot);
        e = runtime.wcudaSetupArgument(ctx, &token, sizeof token, 0);
        if (e != cudart::wcudaError::kSuccess) return fail(e);
        e = runtime.wcudaLaunch(ctx, "spec:" + spec.name);
        res.reply = frontend.last_completion();
        if (e != cudart::wcudaError::kSuccess) return fail(e);
        e = runtime.wcudaMemcpy(ctx, output.data(), dev, out_bytes,
                                cudart::MemcpyKind::kDeviceToHost);
        if (e != cudart::wcudaError::kSuccess) return fail(e);
        runtime.wcudaFree(ctx, dev);
      });
    }
  }
  bool flushed_ok = true;
  if (flags.get_bool("flush")) {
    unsent.wait();
    flushed_ok = conn->flush(reply_timeout);
    out << "FLUSH " << (flushed_ok ? "ok" : "FAILED") << "\n";
  }
  for (auto& t : apps) t.join();

  // One parseable line per instance: bit-exact finish time + placement.
  std::sort(results.begin(), results.end(),
            [](const InstanceResult& a, const InstanceResult& b) {
              return a.owner < b.owner;
            });
  bool all_ok = flushed_ok;
  for (const auto& r : results) {
    const bool ok =
        r.status == cudart::wcudaError::kSuccess && r.reply.ok;
    all_ok = all_ok && ok;
    out << "REPLY owner=" << r.owner << " ok=" << (ok ? 1 : 0)
        << " where=" << static_cast<int>(r.reply.where)
        << " finish=" << f64_bits(r.reply.finish_time.seconds());
    if (!ok) {
      out << " error="
          << (r.reply.error.empty() ? cudart::error_name(r.status)
                                    : r.reply.error);
    }
    out << "\n";
  }

  if (conn->reconnects() > 0) {
    out << "RECONNECTS n=" << conn->reconnects()
        << " replayed=" << conn->replayed_launches() << "\n";
  }

  if (flags.get_bool("shutdown")) {
    out << "SHUTDOWN " << (conn->request_shutdown() ? "sent" : "FAILED")
        << "\n";
  }
  maybe_export_trace(flags, "ewcsim client", out);
  return all_ok ? 0 : 1;
}

int cmd_stats(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser flags({
      {"socket",
       "daemon/router endpoint: unix:/path, tcp:host:port, or a bare path; "
       "comma-separate a failover list (primary,standby)",
       false, false},
      {"connect-timeout", "daemon connect budget, s (default 10)", false,
       false},
      {"timeout", "reply wait budget, s (default 30)", false, false},
      {"no-histograms", "fetch counters only", true, false},
  });
  flags.parse(args);
  const auto socket_path = flags.value("socket");
  if (!socket_path.has_value()) throw ArgsError("--socket is required");
  const auto connect_timeout = common::Duration::from_seconds(
      flags.get_double_in("connect-timeout", 10.0, 0.1, 3600.0));
  const auto reply_timeout = common::Duration::from_seconds(
      flags.get_double_in("timeout", 30.0, 0.1, 3600.0));

  std::string error;
  auto conn = server::ClientConnection::connect(*socket_path, "ewcsim-stats",
                                                connect_timeout, &error);
  if (conn == nullptr) throw ArgsError("cannot connect: " + error);
  const auto reply =
      conn->stats(!flags.get_bool("no-histograms"), reply_timeout);
  if (!reply.has_value()) {
    throw ArgsError(
        "no stats reply (daemon too old for the STATS frame, or timed out)");
  }

  out << "ewcd uptime: "
      << static_cast<double>(reply->uptime_micros) * 1e-6 << " s\n";
  // Against a router the reply carries a shard.<i>.* breakdown next to the
  // fleet aggregate; split it out so each shard reads as its own table.
  std::map<int, std::map<std::string, double>> per_shard;
  common::TextTable counters({"counter", "value"});
  for (const auto& [name, value] : reply->counters) {
    if (auto scoped = obs::parse_shard_scope(name)) {
      per_shard[scoped->shard][std::move(scoped->name)] = value;
      continue;
    }
    counters.add_row({name, common::TextTable::num(value, 0)});
  }
  out << (per_shard.empty() ? "counters:\n" : "fleet counters:\n") << counters;
  for (const auto& [shard, shard_counters] : per_shard) {
    common::TextTable t({"counter", "value"});
    for (const auto& [name, value] : shard_counters) {
      t.add_row({name, common::TextTable::num(value, 0)});
    }
    out << "shard " << shard << " counters:\n" << t;
  }

  if (!reply->histograms.empty()) {
    common::TextTable hists(
        {"histogram", "count", "mean", "p50", "p95", "p99"});
    for (const auto& [name, h] : reply->histograms) {
      hists.add_row({name, std::to_string(h.total),
                     common::TextTable::num(h.mean(), 6),
                     common::TextTable::num(h.percentile(50), 6),
                     common::TextTable::num(h.percentile(95), 6),
                     common::TextTable::num(h.percentile(99), 6)});
    }
    out << "histograms:\n" << hists;
  }
  return 0;
}

int cmd_loadgen(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser flags({
      {"socket",
       "daemon/router endpoint: unix:/path, tcp:host:port, or a bare path; "
       "comma-separate a failover list (primary,standby)",
       false, false},
      {"profile",
       "arrival process: poisson:rate=R | diurnal:rate=R:period=P:depth=D | "
       "bursty:rate=R:period=P:burst=K:duty=F (default poisson:rate=100)",
       false, false},
      {"workload", "name[=weight] in the traffic mix, repeatable", false,
       true},
      {"sessions", "concurrent client sessions (default 500)", false, false},
      {"duration", "schedule horizon, s (default 10)", false, false},
      {"seed", "schedule seed (default 42)", false, false},
      {"dispatchers", "sender threads (default 8)", false, false},
      {"connect-timeout", "daemon connect budget, s (default 30)", false,
       false},
      {"drain-timeout",
       "wait for outstanding completions after dispatch, s (default 120)",
       false, false},
      {"reconnect", "redial + replay on transport loss (per session)", true,
       false},
      {"breaker",
       "consecutive transport errors before a session's circuit opens "
       "(default 8; 0 disables)",
       false, false},
      {"out",
       "append the ewcd-bench/v1 datapoint to this JSONL file "
       "(default BENCH_ewcd.json; 'none' skips)",
       false, false},
      {"git-rev", "revision recorded in the datapoint (default unknown)",
       false, false},
      {"compare",
       "baseline JSONL; exit 3 if this run regressed vs the last datapoint "
       "with the same config hash",
       false, false},
      {"tolerance", "relative regression tolerance (default 0.25)", false,
       false},
      {"print-schedule",
       "print the deterministic (time, session, workload) schedule and exit "
       "without contacting a daemon",
       true, false},
      {"interval-jsonl",
       "append one ewcd-bench/v1 interval row per second (rps, p50/p95, "
       "inflight) to this JSONL file while the run is live",
       false, false},
      trace_out_spec(),
  });
  flags.parse(args);
  maybe_enable_tracing(flags);

  loadgen::LoadgenConfig config;
  {
    std::string perr;
    const auto profile = loadgen::ArrivalProfile::parse(
        flags.get_string("profile", "poisson:rate=100"), &perr);
    if (!profile.has_value()) throw ArgsError("--profile: " + perr);
    config.profile = *profile;
  }
  // Sorted by name so the mix's canonical text — and therefore the config
  // hash and the schedule's weighted draws — don't depend on flag order.
  std::map<std::string, double> weights;
  for (const auto& token : flags.values("workload")) {
    auto [name, count] = parse_workload_count(token);
    weights[name] += count;
  }
  if (weights.empty()) {
    throw ArgsError("at least one --workload name[=weight] is required");
  }
  std::string mix_text;
  for (const auto& [name, weight] : weights) {
    config.mix.push_back({name, weight, find_spec(name).gpu});
    if (!mix_text.empty()) mix_text += ",";
    mix_text += name + "=" + std::to_string(static_cast<int>(weight));
  }
  config.sessions = flags.get_int_in("sessions", 500, 1, 100000);
  config.duration_seconds = flags.get_double_in("duration", 10.0, 0.1, 86400.0);
  config.seed = static_cast<std::uint64_t>(
      flags.get_int_in("seed", 42, 0, std::numeric_limits<int>::max()));
  config.dispatchers = flags.get_int_in("dispatchers", 8, 1, 1024);
  config.connect_timeout = common::Duration::from_seconds(
      flags.get_double_in("connect-timeout", 30.0, 0.1, 3600.0));
  config.drain_timeout = common::Duration::from_seconds(
      flags.get_double_in("drain-timeout", 120.0, 1.0, 86400.0));
  config.client.auto_reconnect = flags.get_bool("reconnect");
  config.client.breaker_threshold = flags.get_int_in("breaker", 8, 0, 1000);
  config.interval_jsonl = flags.get_string("interval-jsonl", "");

  if (flags.get_bool("print-schedule")) {
    for (const auto& e : loadgen::build_schedule(config)) {
      out << "SCHED t=" << f64_bits(e.at_seconds) << " session=" << e.session
          << " mix=" << config.mix[e.mix_index].name << "\n";
    }
    return 0;
  }

  const auto socket_path = flags.value("socket");
  if (!socket_path.has_value()) throw ArgsError("--socket is required");
  config.socket_path = *socket_path;

  loadgen::LoadgenResult result;
  std::string error;
  if (!loadgen::run_loadgen(config, &result, &error)) {
    throw ArgsError("loadgen: " + error);
  }

  out << "LOADGEN sessions=" << result.sessions_connected
      << " sent=" << result.sent << " completed=" << result.completed
      << " ok=" << result.ok << " rejected=" << result.rejected
      << " failed=" << result.failed << " lost=" << result.lost
      << " dup=" << result.duplicates << "\n";
  out << "LATENCY p50=" << result.latency.percentile(50)
      << " p95=" << result.latency.percentile(95)
      << " p99=" << result.latency.percentile(99) << " seconds\n";
  out << "RATE rps=" << result.requests_per_second
      << " wall=" << result.wall_seconds << "\n";
  out << "ENERGY valid=" << (result.energy_valid ? 1 : 0)
      << " joules=" << result.energy_joules
      << " j_per_req=" << result.joules_per_request << "\n";

  const auto point = loadgen::make_datapoint(
      config, result, mix_text, flags.get_string("git-rev", "unknown"),
      static_cast<std::int64_t>(std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch()).count()));

  const std::string out_path = flags.get_string("out", "BENCH_ewcd.json");
  if (out_path != "none") {
    if (!loadgen::append_datapoint(out_path, point, &error)) {
      throw ArgsError("bench emit: " + error);
    }
    out << "BENCH wrote " << out_path << "\n";
  }

  int exit_code = 0;
  if (result.lost > 0 || result.duplicates > 0 ||
      result.sessions_connected !=
          static_cast<std::uint64_t>(config.sessions)) {
    out << "LOADGEN FAILED: lost or duplicated requests\n";
    exit_code = 1;
  }

  const auto baseline = flags.value("compare");
  if (baseline.has_value()) {
    const double tolerance =
        flags.get_double_in("tolerance", 0.25, 0.0, 10.0);
    const auto verdict =
        loadgen::compare_datapoint(point, *baseline, tolerance, &error);
    if (!verdict.has_value()) throw ArgsError("compare: " + error);
    if (!verdict->baseline_found) {
      out << "COMPARE no baseline (" << verdict->detail << ")\n";
    } else {
      out << verdict->detail;
      out << "COMPARE " << (verdict->regressed ? "REGRESSED" : "ok")
          << " tolerance=" << tolerance << "\n";
      if (verdict->regressed && exit_code == 0) exit_code = 3;
    }
  }
  maybe_export_trace(flags, "ewcsim loadgen", out);
  return exit_code;
}

int cmd_trace_merge(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser flags({
      {"in", "input Chrome-trace JSON, repeatable", false, true},
      {"out", "merged output path", false, false},
  });
  flags.parse(args);
  std::vector<std::string> inputs = flags.values("in");
  for (const auto& p : flags.positional()) inputs.push_back(p);
  const auto out_path = flags.value("out");
  if (!out_path.has_value()) throw ArgsError("--out is required");
  if (inputs.size() < 2) {
    throw ArgsError("need at least two inputs (--in a.json --in b.json)");
  }
  std::string error;
  if (!obs::merge_chrome_trace_files(inputs, *out_path, &error)) {
    throw ArgsError("merge failed: " + error);
  }
  out << "merged " << inputs.size() << " traces into " << *out_path << "\n";
  return 0;
}

int run_command(const std::vector<std::string>& argv, std::ostream& out,
                std::ostream& err) {
  if (argv.empty()) {
    err << main_usage();
    return 2;
  }
  const std::string command = argv.front();
  const std::vector<std::string> rest(argv.begin() + 1, argv.end());
  try {
    if (command == "list") return cmd_list(rest, out);
    if (command == "compare") return cmd_compare(rest, out);
    if (command == "predict") return cmd_predict(rest, out);
    if (command == "trace") return cmd_trace(rest, out);
    if (command == "ptx") return cmd_ptx(rest, out);
    if (command == "timeline") return cmd_timeline(rest, out);
    if (command == "cache-stats") return cmd_cache_stats(rest, out);
    if (command == "serve") return cmd_serve(rest, out);
    if (command == "route") return cmd_route(rest, out);
    if (command == "client") return cmd_client(rest, out);
    if (command == "stats") return cmd_stats(rest, out);
    if (command == "top") return cmd_top(rest, out);
    if (command == "loadgen") return cmd_loadgen(rest, out);
    if (command == "trace-merge") return cmd_trace_merge(rest, out);
    if (command == "help" || command == "--help") {
      out << main_usage();
      return 0;
    }
    err << "unknown command '" << command << "'\n" << main_usage();
    return 2;
  } catch (const ArgsError& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace ewc::cli
