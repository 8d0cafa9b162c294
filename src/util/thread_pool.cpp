#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

namespace sjc {

namespace {
// Set while a pool worker is executing a task; nested parallel_for calls
// from inside a worker run inline instead of queueing (deadlock avoidance).
thread_local bool t_inside_worker = false;

// Restores the flag's previous value on scope exit, so reentrant pool use
// (a task body that itself drives the pool from this thread) cannot clear
// the outer task's inside-worker state and defeat the inline fallback.
struct InsideWorkerGuard {
  bool prior;
  InsideWorkerGuard() : prior(t_inside_worker) { t_inside_worker = true; }
  ~InsideWorkerGuard() { t_inside_worker = prior; }
};
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    const InsideWorkerGuard guard;
    task();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (count == 1 || workers_.size() == 1 || t_inside_worker) {
    // Run inline: avoids queueing overhead and keeps single-core hosts fast.
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  // Completion state lives behind done_mutex (no lone atomic counter): each
  // finishing shard increments and notifies *while holding the lock*, so the
  // waiter — which owns the lock whenever it evaluates the predicate or
  // returns from wait — cannot observe `done == shards` and destroy these
  // stack objects until the last notifier has released the mutex. (The old
  // scheme bumped an atomic before locking, letting the waiter return and
  // unwind the frame between the notifier's fetch_add and its lock: a
  // use-after-scope on done_mutex/done_cv.)
  std::size_t done = 0;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const std::size_t shards = std::min(count, workers_.size());
  const auto shard_body = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) break;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(done_mutex);
      if (++done == shards) done_cv.notify_all();
    }
  };

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t s = 0; s < shards; ++s) queue_.push(shard_body);
  }
  cv_.notify_all();

  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return done == shards; });
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

std::vector<std::pair<std::size_t, std::size_t>> even_ranges(std::size_t count,
                                                             std::size_t max_chunks) {
  const std::size_t chunks = std::min(count, std::max<std::size_t>(max_chunks, 1));
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve(chunks);
  std::size_t begin = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t end = begin + count / chunks + (c < count % chunks ? 1 : 0);
    out.emplace_back(begin, end);
    begin = end;
  }
  return out;
}

}  // namespace sjc
