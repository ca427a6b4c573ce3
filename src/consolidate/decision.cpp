#include "consolidate/decision.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "fault/injector.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"

namespace ewc::consolidate {

const char* alternative_name(Alternative a) {
  switch (a) {
    case Alternative::kConsolidatedGpu: return "consolidated-gpu";
    case Alternative::kIndividualGpu: return "individual-gpu";
    case Alternative::kCpu: return "cpu";
  }
  return "?";
}

common::Power gpu_idle_adder(const gpusim::EnergyConfig& e) {
  return common::Power::from_watts(e.system_idle_with_gpu.watts() -
                                   e.host_only_idle.watts());
}

const AlternativeEstimate& Decision::chosen_estimate() const {
  for (const auto& e : estimates) {
    if (e.which == chosen) return e;
  }
  throw std::logic_error("Decision: chosen alternative missing");
}

DecisionEngine::DecisionEngine(gpusim::DeviceConfig dev,
                               power::GpuPowerModel power_model,
                               cpusim::CpuConfig cpu_cfg, FrameworkCosts costs,
                               gpusim::EnergyConfig energy)
    : dev_(dev),
      perf_(dev),
      power_(std::move(power_model)),
      cpu_cfg_(cpu_cfg),
      costs_(costs),
      energy_(energy) {}

void DecisionEngine::enable_prediction_cache(std::size_t capacity) {
  cache_ = std::make_unique<gpusim::SimCache<GpuPrediction>>(capacity);
}

gpusim::CacheStats DecisionEngine::prediction_cache_stats() const {
  return cache_ ? cache_->stats() : gpusim::CacheStats{};
}

DecisionEngine::GpuPrediction DecisionEngine::predict_gpu(
    const gpusim::LaunchPlan& plan) const {
  gpusim::PlanSignature sig;
  if (cache_) {
    sig = gpusim::plan_signature(plan);
    if (auto hit = cache_->get(sig)) return *hit;
  }
  GpuPrediction p;
  const auto timing = perf_.predict(plan);
  const auto pw = power_.predict(dev_, plan, timing);
  p.time = timing.total_time;
  p.energy = pw.system_energy;
  p.type1 = timing.type == perf::ConsolidationType::kType1;
  if (cache_) cache_->put(sig, p);
  return p;
}

Duration DecisionEngine::overhead(
    const std::vector<gpusim::KernelInstance>& instances,
    const std::vector<std::size_t>& staged_bytes,
    const std::vector<int>& api_messages, const Optimizations& opts) const {
  if (instances.size() != staged_bytes.size() ||
      instances.size() != api_messages.size()) {
    throw std::invalid_argument("DecisionEngine::overhead: size mismatch");
  }
  const std::size_t n = instances.size();
  double secs = costs_.decision_eval.seconds();

  // Communication: with leader election, one frontend per homogeneous group
  // speaks for the group and the rest only register + ship data.
  std::map<std::string, int> seen;  // kernel name -> members so far
  for (std::size_t i = 0; i < n; ++i) {
    int messages = api_messages[i];
    if (opts.leader_election) {
      const int member = seen[instances[i].desc.name]++;
      if (member > 0) messages = std::min(messages, costs_.messages_follower);
    }
    secs += messages * costs_.ipc_round_trip.seconds();
  }

  // Staging: one shared pre-allocated buffer serializes the copies, and each
  // queued instance waits one extra round per predecessor. Without the
  // constant-data-reuse optimization, every instance additionally ships its
  // kernel's constant data (e.g. the AES T-tables) through the buffer.
  std::set<std::string> constants_uploaded;
  for (std::size_t i = 0; i < n; ++i) {
    double bytes = static_cast<double>(staged_bytes[i]);
    const double cbytes = instances[i].desc.resources.constant_data.bytes();
    if (cbytes > 0.0) {
      const bool first =
          constants_uploaded.insert(instances[i].desc.name).second;
      if (!opts.constant_data_reuse || first) {
        bytes += cbytes;
        secs += costs_.staging_fixed.seconds();  // extra upload round trip
      }
    }
    secs += costs_.staging_fixed.seconds() +
            bytes / costs_.staging_bandwidth.bytes_per_second();
    secs += static_cast<double>(i) * costs_.staging_round.seconds();
  }

  // Frontend synchronization barrier before the combined launch.
  secs += static_cast<double>(n) * costs_.barrier_per_frontend.seconds();
  return Duration::from_seconds(secs);
}

namespace {
void check_inputs(
    const gpusim::LaunchPlan& plan,
    const std::vector<std::optional<cpusim::CpuTask>>& cpu_profiles) {
  if (plan.instances.empty()) {
    throw std::invalid_argument("DecisionEngine::decide: empty plan");
  }
  if (cpu_profiles.size() != plan.instances.size()) {
    throw std::invalid_argument("DecisionEngine::decide: profile count mismatch");
  }
}
}  // namespace

template <typename Eval>
Decision DecisionEngine::hooked(std::size_t instances, Eval&& eval) const {
  // Scripted predictor misbehavior: a fail is an exception (the Backend's
  // degraded path catches it), a stall burns wall time against the
  // decision deadline.
  if (auto a = fault::hit("decision.decide")) {
    if (a.kind == fault::ActionKind::kFail) {
      throw fault::InjectedFault("injected decision failure");
    }
    if (a.kind == fault::ActionKind::kStall ||
        a.kind == fault::ActionKind::kDelay) {
      fault::sleep_for(a.duration);
    }
  }

  static obs::Histogram* decide_hist =
      obs::Registry::instance().histogram("decision.decide_seconds");
  const double t0_us = obs::Tracer::now_us();
  obs::ScopedSpan span("decision.decide");
  Decision d = eval();
  decide_hist->record((obs::Tracer::now_us() - t0_us) * 1e-6);
  if (span.active()) {
    span.set_args("\"instances\":" + std::to_string(instances) +
                  ",\"chosen\":\"" + alternative_name(d.chosen) + "\"");
  }
  return d;
}

Decision DecisionEngine::decide(
    const gpusim::LaunchPlan& plan,
    const std::vector<std::optional<cpusim::CpuTask>>& cpu_profiles,
    Duration framework_overhead, DecisionPolicy policy) const {
  check_inputs(plan, cpu_profiles);
  return hooked(plan.instances.size(), [&] {
    return evaluate(plan, cpu_profiles, framework_overhead, policy);
  });
}

Decision DecisionEngine::decide(Decision evaluated,
                                std::size_t instances) const {
  return hooked(instances, [&] { return std::move(evaluated); });
}

Decision DecisionEngine::evaluate(
    const gpusim::LaunchPlan& plan,
    const std::vector<std::optional<cpusim::CpuTask>>& cpu_profiles,
    Duration framework_overhead, DecisionPolicy policy) const {
  check_inputs(plan, cpu_profiles);

  Decision d;
  AlternativeEstimate ea, eb, ec;
  // The daemon stages and coordinates the group before it decides, so the
  // node's idle draw through the overhead window is charged whatever runs.
  const Energy overhead_charge =
      energy_.system_idle_with_gpu * framework_overhead;

  // (a) consolidated GPU.
  const auto eval_consolidated = [&] {
    ea.which = Alternative::kConsolidatedGpu;
    const auto p = predict_gpu(plan);
    ea.time = p.time + framework_overhead;
    ea.charge = p.energy + overhead_charge;
    ea.note = p.type1 ? "type-1" : "type-2";
  };

  // (b) individual (serial) GPU execution. Each instance is predicted alone,
  // so the memo entry for a kernel shape is shared across batch positions.
  const auto eval_individual = [&] {
    eb.which = Alternative::kIndividualGpu;
    Duration total = Duration::zero();
    Energy energy = Energy::zero();
    // One single-instance plan reused across the scan: the copy assignment
    // below recycles its string/vector capacity instead of re-allocating a
    // fresh plan per candidate.
    gpusim::LaunchPlan single;
    single.instances.resize(1);
    for (const auto& inst : plan.instances) {
      single.instances[0] = inst;
      const auto p = predict_gpu(single);
      total += p.time;
      energy += p.energy;
    }
    eb.time = total;
    eb.charge = energy + overhead_charge;
  };

  // (c) CPU, from the provided profiles (paper: "we assume that CPU
  // performance and energy profiles are available").
  const auto eval_cpu = [&] {
    ec.which = Alternative::kCpu;
    std::vector<cpusim::CpuTask> tasks;
    tasks.reserve(cpu_profiles.size());
    bool have_all = true;
    for (const auto& p : cpu_profiles) {
      if (!p.has_value()) {
        have_all = false;
        break;
      }
      tasks.push_back(*p);
    }
    if (have_all) {
      cpusim::CpuEngine cpu(cpu_cfg_);
      const auto run = cpu.run(tasks);
      ec.time = run.makespan;
      // The same additions GroupExecutor::run and the backend make, so the
      // CPU charge is the executed one bit for bit.
      ec.charge = (run.system_energy + gpu_idle_adder(energy_) * run.makespan) +
                  overhead_charge;
    } else {
      ec.feasible = false;
      ec.note = "missing CPU profile";
    }
  };

  if (pool_ != nullptr) {
    // The GPU alternatives go to the pool; the CPU alternative runs here so
    // the calling thread contributes instead of blocking immediately.
    auto fa = pool_->submit(eval_consolidated);
    auto fb = pool_->submit(eval_individual);
    eval_cpu();
    fa.get();
    fb.get();
  } else {
    eval_consolidated();
    eval_individual();
    eval_cpu();
  }
  d.estimates.push_back(std::move(ea));
  d.estimates.push_back(std::move(eb));
  d.estimates.push_back(std::move(ec));

  switch (policy) {
    case DecisionPolicy::kAlwaysConsolidate:
      d.chosen = Alternative::kConsolidatedGpu;
      break;
    case DecisionPolicy::kNeverConsolidate:
      d.chosen = Alternative::kIndividualGpu;
      break;
    case DecisionPolicy::kModelBased: {
      // The least charge. Consolidation must beat both alternatives, so a
      // tie with it (a one-kernel group) goes to the alternative that does
      // not consolidate.
      const AlternativeEstimate* best = nullptr;
      for (const auto& e : d.estimates) {
        if (!e.feasible) continue;
        if (best == nullptr || e.charge < best->charge ||
            (e.charge == best->charge &&
             best->which == Alternative::kConsolidatedGpu)) {
          best = &e;
        }
      }
      d.chosen = best ? best->which : Alternative::kIndividualGpu;
      break;
    }
  }
  return d;
}

}  // namespace ewc::consolidate
