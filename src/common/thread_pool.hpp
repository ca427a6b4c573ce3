// A small bounded thread pool shared by the decision engine, the queue
// simulator, the bench sweep harnesses and the daemons' reactor pumps.
//
// Design constraints (in order):
//  * deterministic results for callers — the pool only runs independent
//    closures; any ordering-sensitive reduction happens in the caller after
//    join, so repeated runs produce identical output;
//  * TSan-clean shutdown — workers exit via a stop flag set under the queue
//    mutex and are joined in the destructor, never detached;
//  * no work stealing, no task priorities: decision workloads are a handful
//    of coarse closures, so a single mutex-protected FIFO is both simpler
//    and faster than per-thread deques at this granularity;
//  * workers on demand: a pool starts no thread until a job finds no idle
//    worker to take it, then grows one worker per such job up to its size.
//    A daemon that has not served a frame yet pays for no pump thread, and
//    a pool fed one job at a time keeps one worker.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ewc::common {

class ThreadPool {
 public:
  /// @param threads  most workers the pool starts; 0 picks
  ///                  hardware_concurrency (min 1). None start until the
  ///                  first job.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The worker cap (not how many have started).
  std::size_t size() const { return cap_; }

  /// Workers started so far; never more than size().
  std::size_t threads() const;

  /// Block until the queue is empty and every started worker waits for
  /// work.
  void wait_idle();

  /// Enqueue a closure; the future carries its result (or exception).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

  /// Fire-and-forget submit: no future, no packaged_task allocation. The
  /// server reactor schedules its per-connection pumps through this on
  /// every frame, so the cheap path matters.
  void post(std::function<void()> job) { enqueue(std::move(job)); }

  /// Run body(i) for i in [begin, end) across the pool and wait for all of
  /// them. The calling thread participates, so parallel_for never deadlocks
  /// when invoked from inside a pool task. The first exception thrown by any
  /// iteration is rethrown here after the loop drains.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// Lifetime counters (monotone; for `ewcsim cache-stats` style reporting).
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t executed = 0;
  };
  Stats stats() const;

  /// Process-wide default pool, sized to the hardware. Constructed on first
  /// use; never torn down before exit (avoids static-destruction races with
  /// user threads still holding work).
  static ThreadPool& shared();

 private:
  void enqueue(std::function<void()> job);
  void worker_loop();

  const std::size_t cap_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t idle_ = 0;  ///< workers waiting in worker_loop
  bool stop_ = false;
  std::uint64_t submitted_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace ewc::common
