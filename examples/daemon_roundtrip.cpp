// The ewcd daemon end to end, inside one process: start the consolidation
// backend behind a UNIX socket server, connect two simulated user processes
// through ClientConnection + RemoteFrontend, launch a small mix, and show
// that the socket-served completions carry the same simulated results the
// in-process frontend would have produced (the framed wire protocol encodes
// doubles bit-exactly).
//
// In production use the same pieces run as separate processes:
//   ewcsim serve  --socket /tmp/ewcd.sock --workload encryption_12k=2
//   ewcsim client --socket /tmp/ewcd.sock --workload encryption_12k=2
//
// Run:  ./build/examples/daemon_roundtrip
#include <cstdio>
#include <iostream>
#include <thread>
#include <vector>

#include "consolidate/backend.hpp"
#include "cudart/runtime.hpp"
#include "power/power_model.hpp"
#include "server/client.hpp"
#include "server/remote_frontend.hpp"
#include "server/server.hpp"
#include "workloads/paper_configs.hpp"

int main() {
  using namespace ewc;

  const auto spec = workloads::encryption_12k();
  const int instances = 2;

  // ---- daemon side: backend + socket server ----
  gpusim::FluidEngine engine;
  const power::GpuPowerModel model = power::default_device_model();

  consolidate::BackendOptions options;
  options.batch_threshold = instances;  // one consolidated batch
  auto templates = consolidate::TemplateRegistry::paper_defaults();
  consolidate::Backend backend(engine, model, std::move(templates), options);
  backend.set_cpu_profile(spec.gpu.name, spec.cpu);

  server::ServerOptions sopt;
  sopt.socket_path = "/tmp/ewcd_example.sock";
  ::remove(sopt.socket_path.c_str());
  server::Server server(backend, sopt);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "cannot start ewcd: " << error << "\n";
    return 1;
  }
  std::cout << "ewcd listening on " << sopt.socket_path << "\n";

  // ---- client side: one connection, one RemoteFrontend per app thread ----
  auto conn = server::ClientConnection::connect(
      sopt.socket_path, "example", common::Duration::from_seconds(5.0),
      &error);
  if (conn == nullptr) {
    std::cerr << "cannot connect: " << error << "\n";
    return 1;
  }

  cudart::KernelRegistry registry;
  const gpusim::KernelDesc desc = spec.gpu;
  registry.register_kernel(
      "spec:" + spec.name,
      [desc](const cudart::LaunchConfig&, std::span<const std::byte>) {
        return desc;
      });
  gpusim::FluidEngine client_engine;  // only the direct path would use it
  cudart::Runtime runtime(client_engine, &registry);

  std::vector<consolidate::CompletionReply> replies(instances);
  std::vector<std::thread> apps;
  for (int slot = 0; slot < instances; ++slot) {
    apps.emplace_back([&, slot] {
      char suffix[16];
      std::snprintf(suffix, sizeof suffix, "#%04d", slot);
      cudart::Context ctx(spec.name + suffix, 512u << 20);
      server::RemoteFrontend frontend(*conn, ctx.owner(), &registry);
      ctx.set_interceptor(&frontend);

      // The usual five-call CUDA application shape.
      const std::size_t bytes = 4096;
      std::vector<std::uint8_t> host(bytes, 0xAB);
      void* dev = nullptr;
      runtime.wcudaMalloc(ctx, &dev, bytes);
      runtime.wcudaMemcpy(ctx, dev, host.data(), bytes,
                          cudart::MemcpyKind::kHostToDevice);
      runtime.wcudaConfigureCall(
          ctx, cudart::Dim3{static_cast<unsigned>(spec.gpu.num_blocks), 1, 1},
          cudart::Dim3{static_cast<unsigned>(spec.gpu.threads_per_block), 1, 1},
          0);
      const std::uint64_t token = static_cast<std::uint64_t>(slot);
      runtime.wcudaSetupArgument(ctx, &token, sizeof token, 0);
      runtime.wcudaLaunch(ctx, "spec:" + spec.name);
      replies[static_cast<std::size_t>(slot)] = frontend.last_completion();
      runtime.wcudaFree(ctx, dev);
    });
  }
  for (auto& t : apps) t.join();

  for (int slot = 0; slot < instances; ++slot) {
    const auto& r = replies[static_cast<std::size_t>(slot)];
    std::cout << "instance " << slot << ": "
              << (r.ok ? "ok" : "FAILED: " + r.error)
              << ", finish " << r.finish_time.seconds() << " s, where "
              << static_cast<int>(r.where) << "\n";
  }
  for (const auto& report : backend.reports()) {
    std::cout << "batch: " << report.num_instances << " instances, template "
              << (report.template_found ? report.template_name : "(none)")
              << ", total " << report.total_time.seconds() << " s, energy "
              << report.energy.joules() << " J\n";
  }

  conn->request_shutdown();  // admin path: ask the daemon to drain
  server.wait();
  std::cout << "ewcd drained\n";
  return 0;
}
