#include "common/thread_pool.hpp"

#include <algorithm>
#include <memory>

namespace ewc::common {

ThreadPool::ThreadPool(std::size_t threads)
    : cap_(threads != 0
               ? threads
               : std::max<std::size_t>(1, std::thread::hardware_concurrency())) {
  workers_.reserve(cap_);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;  // no worker starts after this, so workers_ is final
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return queue_.empty() && idle_ == workers_.size();
  });
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Grow only when the queued jobs, this one included, outnumber the
    // idle workers that will take them. Start the worker before queueing,
    // so a failed start leaves the pool as it was.
    if (!stop_ && workers_.size() < cap_ && queue_.size() + 1 > idle_) {
      workers_.emplace_back([this] { worker_loop(); });
    }
    queue_.push_back(std::move(job));
    ++submitted_;
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (queue_.empty()) {
      if (stop_) return;  // stop_ and drained
      if (++idle_ == workers_.size()) idle_cv_.notify_all();
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      --idle_;
      continue;
    }
    std::function<void()> job = std::move(queue_.front());
    queue_.pop_front();
    ++executed_;
    lock.unlock();
    job();
    job = nullptr;  // release the closure's captures before relocking
    lock.lock();
  }
}

ThreadPool::Stats ThreadPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{submitted_, executed_};
}

ThreadPool& ThreadPool::shared() {
  // Leaked on purpose: tears down only at process exit, after every client.
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

namespace {

/// Shared state of one parallel_for: claimed via an index cursor so the
/// caller can execute iterations alongside the workers.
struct ParallelState {
  std::size_t begin = 0;
  std::size_t count = 0;
  const std::function<void(std::size_t)>* body = nullptr;

  std::mutex mu;
  std::condition_variable done;
  std::size_t next = 0;       ///< next unclaimed iteration
  std::size_t completed = 0;  ///< finished iterations
  std::exception_ptr error;

  void run_available() {
    for (;;) {
      std::size_t i;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (next >= count) return;
        i = next++;
      }
      std::exception_ptr err;
      try {
        (*body)(begin + i);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (err && !error) error = std::move(err);
      if (++completed == count) done.notify_all();
    }
  }
};

}  // namespace

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (n == 1) {
    body(begin);
    return;
  }

  auto state = std::make_shared<ParallelState>();
  state->begin = begin;
  state->count = n;
  state->body = &body;

  // One helper per worker (capped by iteration count); the caller claims
  // iterations too, so progress never depends on queue drain order.
  const std::size_t helpers = std::min(size(), n - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    enqueue([state] { state->run_available(); });
  }
  state->run_available();

  std::unique_lock<std::mutex> lock(state->mu);
  state->done.wait(lock, [&] { return state->completed == state->count; });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace ewc::common
