// A blocking multi-producer / multi-consumer channel.
//
// The consolidation framework's frontends and backend live on different host
// threads (standing in for different user processes); all their IPC flows
// through Channel<Message>. close() lets the backend drain outstanding
// messages and lets frontends observe shutdown instead of blocking forever.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace ewc::common {

template <class T>
class Channel {
 public:
  Channel() = default;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Enqueue a message. Returns false if the channel is closed.
  bool send(T value) {
    {
      std::lock_guard lock(mu_);
      if (closed_) return false;
      queue_.push_back(std::move(value));
    }
    cv_.notify_one();
    return true;
  }

  /// Enqueue several messages in one operation (one lock, one wake-up), in
  /// order. Returns false, enqueuing none, if the channel is closed.
  bool send_all(std::vector<T> values) {
    {
      std::lock_guard lock(mu_);
      if (closed_) return false;
      for (auto& v : values) queue_.push_back(std::move(v));
    }
    cv_.notify_one();
    return true;
  }

  /// Block until a message is available, then take every queued message.
  /// Empty only when the channel is closed and drained.
  std::vector<T> receive_all() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return !queue_.empty() || closed_; });
    std::vector<T> out;
    out.reserve(queue_.size());
    for (auto& v : queue_) out.push_back(std::move(v));
    queue_.clear();
    return out;
  }

  /// Block until a message is available or the channel is closed and drained.
  std::optional<T> receive() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return std::nullopt;
    T value = std::move(queue_.front());
    queue_.pop_front();
    return value;
  }

  /// Timed receive: block up to `timeout` (real wall-clock time) for a
  /// message. Returns nullopt on timeout or when the channel is closed and
  /// drained; a non-finite timeout waits indefinitely like receive().
  std::optional<T> receive_for(Duration timeout) {
    std::unique_lock lock(mu_);
    const auto ready = [&] { return !queue_.empty() || closed_; };
    if (!timeout.is_finite()) {
      cv_.wait(lock, ready);
    } else if (!cv_.wait_for(
                   lock, std::chrono::duration<double>(timeout.seconds()),
                   ready)) {
      return std::nullopt;
    }
    if (queue_.empty()) return std::nullopt;
    T value = std::move(queue_.front());
    queue_.pop_front();
    return value;
  }

  /// Non-blocking receive.
  std::optional<T> try_receive() {
    std::lock_guard lock(mu_);
    if (queue_.empty()) return std::nullopt;
    T value = std::move(queue_.front());
    queue_.pop_front();
    return value;
  }

  /// Close the channel; pending messages remain receivable.
  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard lock(mu_);
    return queue_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> queue_;
  bool closed_ = false;
};

}  // namespace ewc::common
