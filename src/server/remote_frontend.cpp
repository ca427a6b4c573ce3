#include "server/remote_frontend.hpp"

#include <cstdio>
#include <cstring>

#include "obs/tracer.hpp"

namespace ewc::server {

using cudart::MemcpyKind;
using cudart::wcudaError;

RemoteFrontend::RemoteFrontend(ClientConnection& conn, std::string owner,
                               const cudart::KernelRegistry* registry,
                               common::Duration reply_timeout,
                               std::size_t shadow_capacity_bytes)
    : conn_(conn),
      owner_(std::move(owner)),
      registry_(registry ? registry : &cudart::KernelRegistry::global()),
      batching_(conn.server_settings().argument_batching),
      reply_timeout_(reply_timeout),
      shadow_(owner_ + ":shadow", shadow_capacity_bytes) {}

wcudaError RemoteFrontend::on_malloc(void** dev_ptr, std::size_t bytes) {
  messages_since_launch_ += 1;
  return shadow_.allocate(bytes, dev_ptr);
}

wcudaError RemoteFrontend::on_free(void* dev_ptr) {
  messages_since_launch_ += 1;
  return shadow_.release(dev_ptr);
}

wcudaError RemoteFrontend::on_memcpy(void* dst, const void* src,
                                     std::size_t bytes, MemcpyKind kind) {
  // Mirrors consolidate::Frontend::on_memcpy against the shadow heap: the
  // message/staging accounting must be identical for the daemon's overhead
  // model to charge the same costs.
  switch (kind) {
    case MemcpyKind::kHostToDevice: {
      cudart::Allocation* alloc = shadow_.find(dst);
      if (alloc == nullptr) return wcudaError::kInvalidDevicePointer;
      if (bytes > alloc->data.size()) return wcudaError::kInvalidValue;
      std::memcpy(alloc->data.data(), src, bytes);
      staged_since_launch_ += bytes;
      messages_since_launch_ += 1;
      return wcudaError::kSuccess;
    }
    case MemcpyKind::kDeviceToHost: {
      cudart::Allocation* alloc = shadow_.find(const_cast<void*>(src));
      if (alloc == nullptr) return wcudaError::kInvalidDevicePointer;
      if (bytes > alloc->data.size()) return wcudaError::kInvalidValue;
      std::memcpy(dst, alloc->data.data(), bytes);
      return wcudaError::kSuccess;
    }
    case MemcpyKind::kDeviceToDevice: {
      cudart::Allocation* d = shadow_.find(dst);
      cudart::Allocation* s = shadow_.find(const_cast<void*>(src));
      if (d == nullptr || s == nullptr) {
        return wcudaError::kInvalidDevicePointer;
      }
      if (bytes > d->data.size() || bytes > s->data.size()) {
        return wcudaError::kInvalidValue;
      }
      std::memcpy(d->data.data(), s->data.data(), bytes);
      return wcudaError::kSuccess;
    }
  }
  return wcudaError::kInvalidValue;
}

wcudaError RemoteFrontend::on_configure_call(cudart::Dim3 grid,
                                             cudart::Dim3 block,
                                             std::size_t shared_mem) {
  config_ = cudart::LaunchConfig{grid, block, shared_mem, /*valid=*/true};
  args_.clear();
  if (!batching_) messages_since_launch_ += 1;
  return wcudaError::kSuccess;
}

wcudaError RemoteFrontend::on_setup_argument(const void* arg, std::size_t size,
                                             std::size_t offset) {
  if (!config_.valid) return wcudaError::kInvalidConfiguration;
  if (arg == nullptr || size == 0) return wcudaError::kInvalidValue;
  if (args_.size() < offset + size) args_.resize(offset + size);
  std::memcpy(args_.data() + offset, arg, size);
  if (!batching_) messages_since_launch_ += 1;
  return wcudaError::kSuccess;
}

wcudaError RemoteFrontend::on_launch(const std::string& kernel_name) {
  if (!config_.valid) return wcudaError::kInvalidConfiguration;
  if (!registry_->contains(kernel_name)) return wcudaError::kUnknownKernel;

  consolidate::LaunchRequest req;
  req.owner = owner_;
  try {
    req.desc = registry_->instantiate(kernel_name, config_, args_);
  } catch (const std::exception&) {
    return wcudaError::kLaunchFailure;
  }
  if (staged_since_launch_ > 0) {
    req.desc.h2d_bytes =
        common::Bytes::from_bytes(static_cast<double>(staged_since_launch_));
  }
  req.staged_bytes = staged_since_launch_;
  req.api_messages = messages_since_launch_ + 1;  // + the launch itself

  config_ = cudart::LaunchConfig{};
  args_.clear();
  messages_since_launch_ = 0;
  staged_since_launch_ = 0;

  // Wraps the whole remote round trip (encode, wire, daemon batch, reply)
  // from this app thread's point of view; the request_id the connection
  // assigned arrives with the reply and correlates this span with the
  // client.launch and server.request spans underneath it.
  obs::ScopedSpan span("frontend.launch");
  last_reply_ = conn_.launch(std::move(req), reply_timeout_, on_launch_sent_);
  if (span.active()) {
    span.set_request_id(last_reply_.request_id);
    char args[96];
    std::snprintf(args, sizeof(args), "\"kernel\":\"%s\",\"ok\":%s",
                  obs::json_escape(kernel_name).c_str(),
                  last_reply_.ok ? "true" : "false");
    span.set_args(args);
  }
  return last_reply_.ok ? wcudaError::kSuccess : wcudaError::kLaunchFailure;
}

}  // namespace ewc::server
