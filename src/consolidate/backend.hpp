// The consolidation backend daemon (paper Section IV).
//
// A daemon launched before any workload: it owns the only real GPU context,
// listens for frontend connections, conducts every CUDA API call on their
// behalf (staging cross-context copies through its pre-allocated buffer),
// and hands the kernel launches to its BatchFormer (batch_former.hpp),
// which — once enough work is queued — selects template-covered candidate
// sets, asks the decision engine whether consolidation is energy-beneficial,
// and executes the batch on the GPU (consolidated or individual) or on the
// CPU.
//
// Time accounting: the framework's own overheads (IPC, staging, barriers)
// are charged from the calibrated cost model; execution times and energies
// come from the simulators. Host threads are real; the clock is simulated.
#pragma once

#include <chrono>
#include <mutex>
#include <thread>

#include "consolidate/batch_former.hpp"
#include "cudart/context.hpp"

namespace ewc::consolidate {

/// The daemon around a BatchFormer: the channel and the batch thread that
/// feeds it, the device context, reply routing, the stored reports and the
/// steady-clock timing of fills and close checks.
class Backend final : private BatchSink {
 public:
  Backend(const gpusim::FluidEngine& engine, power::GpuPowerModel power_model,
          ServedMix mix, BackendOptions options);
  /// A backend with `templates` and no CPU profile yet.
  Backend(const gpusim::FluidEngine& engine, power::GpuPowerModel power_model,
          TemplateRegistry templates, BackendOptions options);
  ~Backend();

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  // ---- frontend-facing ----
  common::Channel<BackendMessage>& channel() { return channel_; }
  /// The backend's device context; every frontend allocation lives here.
  /// Lock context_mutex() around any access.
  cudart::Context& device_context() { return context_; }
  std::mutex& context_mutex() { return context_mutex_; }
  const BackendOptions& options() const { return former_.options(); }

  /// The CPU profile of one instance of `kernel_name` (paper: CPU profiles
  /// are assumed available).
  void set_cpu_profile(const std::string& kernel_name, cpusim::CpuTask task) {
    former_.set_cpu_profile(kernel_name, std::move(task));
  }

  // ---- main-thread control ----
  /// Process everything pending now; blocks until done.
  void flush();
  void shutdown();

  // ---- results ----
  std::vector<BatchReport> reports() const;
  /// Move every report out (a daemon printing them at exit): no copy.
  std::vector<BatchReport> take_reports();
  common::Duration total_time() const;
  common::Energy total_energy() const;

 private:
  void run_loop();

  // ---- BatchSink, on the batch thread ----
  void checking() override;
  void checked() override;
  void closing(std::size_t launches) override;
  double group_start() override;
  void executed(BatchReport report, std::vector<LaunchRequest> requests,
                std::vector<common::Duration> finish_times) override;
  void failed(std::vector<LaunchRequest> requests,
              const std::string& error) override;

  common::Channel<BackendMessage> channel_;
  cudart::Context context_;
  std::mutex context_mutex_;

  mutable std::mutex state_mutex_;
  std::vector<BatchReport> reports_;
  common::Duration total_time_ = common::Duration::zero();
  common::Energy total_energy_ = common::Energy::zero();

  /// When the first pending launch arrived and the running close check
  /// started, for the fill and check histograms; and when the running group
  /// started (Tracer clock, tracing only).
  std::chrono::steady_clock::time_point fill_start_;
  std::chrono::steady_clock::time_point check_start_;
  double group_start_us_ = 0.0;
  obs::Histogram* batch_fill_ = nullptr;
  obs::Histogram* close_check_seconds_ = nullptr;

  BatchFormer former_;
  std::thread worker_;
};

}  // namespace ewc::consolidate
