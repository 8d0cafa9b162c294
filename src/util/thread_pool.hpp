// Fixed-size thread pool.
//
// The cluster simulator executes task bodies on this pool so multi-core
// hosts overlap real compute, while *simulated* time is computed separately
// by the scheduler (see cluster/scheduler.hpp). parallel_for is the only
// primitive the engines need: run N independent task bodies, collect
// exceptions, preserve index order of results.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace sjc {

class ThreadPool {
 public:
  /// Creates a pool with `threads` workers (0 = hardware concurrency).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Runs body(i) for i in [0, count) across the pool and blocks until all
  /// complete. The first exception thrown by any body is rethrown (the
  /// remaining bodies still run to completion).
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

  /// Process-wide shared pool (lazy-initialized).
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Splits [0, count) into min(count, max_chunks) contiguous ranges, in
/// order, whose sizes differ by at most one; no ranges when count is 0.
/// Callers that build per-chunk partials on the pool and combine them in
/// range order get the result one serial pass would.
std::vector<std::pair<std::size_t, std::size_t>> even_ranges(std::size_t count,
                                                             std::size_t max_chunks);

}  // namespace sjc
