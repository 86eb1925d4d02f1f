// Work-queue thread pool and a static-chunked parallel_for on top of it.
//
// The experiment sweeps in this repository are embarrassingly parallel and
// CPU-bound, so the pool is intentionally simple: a fixed set of workers, a
// mutex-guarded deque, and futures for joining.  parallel_for partitions the
// index range into contiguous chunks (predictable memory access per the
// Core Guidelines Per.19) and rethrows the first worker exception on the
// calling thread so failures are not silently swallowed (CP.42/CP.31 style:
// no detached work, everything joined before return).
#pragma once

#include <cstddef>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace lmpeel::util {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; the returned future rethrows task exceptions.
  std::future<void> submit(std::function<void()> task);

  /// Value-returning overload: the future carries the callable's result
  /// (serve-bench shard's load-generator clients return their latency
  /// samples this way).  Exceptions are rethrown by future::get as usual.
  template <typename F>
    requires(!std::is_void_v<std::invoke_result_t<std::decay_t<F>>>)
  std::future<std::invoke_result_t<std::decay_t<F>>> submit(F&& task) {
    using R = std::invoke_result_t<std::decay_t<F>>;
    std::packaged_task<R()> packaged(std::forward<F>(task));
    auto future = packaged.get_future();
    // packaged_task<R()> is move-only but invocable as void(); wrap it so
    // the queue stays homogeneous.  The inner task owns the shared state;
    // the outer one's future is simply never retrieved.
    enqueue(std::packaged_task<void()>(std::move(packaged)));
    return future;
  }

 private:
  void enqueue(std::packaged_task<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Process-wide pool for experiment sweeps (lazily constructed).
ThreadPool& global_pool();

/// Runs body(i) for i in [begin, end) across the pool in contiguous chunks.
/// Blocks until every index is processed; rethrows the first exception.
/// `grain` is the minimum chunk size (avoids oversubscribing tiny loops).
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

/// Convenience overload using the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

}  // namespace lmpeel::util
