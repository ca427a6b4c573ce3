// RemoteFrontend: the consolidation frontend over a socket.
//
// The socket-served twin of consolidate::Frontend — a cudart::Interceptor a
// user process installs on its Context so existing workloads run unchanged,
// except the backend lives in another process behind an ewcd socket. Memory
// operations are conducted against a private shadow heap (the data the
// in-process frontend would have staged into the backend's buffer), while
// the accounting — staged bytes, API message counts — replicates Frontend
// exactly, so the daemon charges the identical overhead model inputs and
// produces bit-identical results. on_launch ships the resolved KernelDesc
// over the connection and blocks until the CompletionReply frame arrives.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "cudart/context.hpp"
#include "cudart/interceptor.hpp"
#include "cudart/registry.hpp"
#include "server/client.hpp"

namespace ewc::server {

class RemoteFrontend : public cudart::Interceptor {
 public:
  /// @param conn      shared daemon connection (thread-safe; one per process)
  /// @param owner     this simulated user process's name
  /// @param registry  kernel-name resolution; defaults to the global one
  /// @param reply_timeout  real-time bound on waiting for a completion
  ///                       frame; non-finite blocks until the daemon answers
  RemoteFrontend(ClientConnection& conn, std::string owner,
                 const cudart::KernelRegistry* registry = nullptr,
                 common::Duration reply_timeout = common::Duration::infinity(),
                 std::size_t shadow_capacity_bytes = std::size_t{512} << 20);

  // cudart::Interceptor
  cudart::wcudaError on_malloc(void** dev_ptr, std::size_t bytes) override;
  cudart::wcudaError on_free(void* dev_ptr) override;
  cudart::wcudaError on_memcpy(void* dst, const void* src, std::size_t bytes,
                               cudart::MemcpyKind kind) override;
  cudart::wcudaError on_configure_call(cudart::Dim3 grid, cudart::Dim3 block,
                                       std::size_t shared_mem) override;
  cudart::wcudaError on_setup_argument(const void* arg, std::size_t size,
                                       std::size_t offset) override;
  cudart::wcudaError on_launch(const std::string& kernel_name) override;

  /// Run `f` once each launch has been handed to the connection, before
  /// the launch blocks on its reply (ClientConnection::launch's on_sent).
  void set_on_launch_sent(std::function<void()> f) {
    on_launch_sent_ = std::move(f);
  }

  /// Result of the most recent (blocking) launch.
  const consolidate::CompletionReply& last_completion() const {
    return last_reply_;
  }
  const std::string& owner() const { return owner_; }

 private:
  ClientConnection& conn_;
  std::string owner_;
  const cudart::KernelRegistry* registry_;
  bool batching_;  ///< from the server's hello handshake
  common::Duration reply_timeout_;
  std::function<void()> on_launch_sent_;

  /// Stand-in for the backend heap the in-process frontend would stage into.
  cudart::Context shadow_;

  cudart::LaunchConfig config_;
  std::vector<std::byte> args_;
  int messages_since_launch_ = 0;
  std::size_t staged_since_launch_ = 0;
  consolidate::CompletionReply last_reply_;
};

}  // namespace ewc::server
