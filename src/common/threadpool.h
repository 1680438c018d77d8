// Fixed-size worker pool used by the engine's executors.
//
// On this reproduction's single-core host the pool still provides the
// concurrency *semantics* the Indexed DataFrame needs (concurrent readers
// against cTrie snapshots, one writer per partition) even though parallel
// speedup is modeled by the discrete-event scheduler (see engine/cluster.h).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace idf {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns a future for its completion.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    // The count is bumped inside the packaged task, before its future turns
    // ready, so a caller that has waited on every future sees every task.
    auto task = std::make_shared<std::packaged_task<R()>>(
        [this, fn = std::forward<F>(fn)]() mutable -> R {
          CountOnExit counted{completed_};
          return fn();
        });
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      IDF_CHECK_POOL_OPEN();
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Runs fn(i) for i in [0, count) across the pool and waits for all.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return workers_.size(); }

  /// Tasks executed since construction (for scheduler accounting tests).
  size_t completed_tasks() const {
    return completed_.load(std::memory_order_acquire);
  }

 private:
  struct CountOnExit {  // counts a task even when it throws
    std::atomic<size_t>& count;
    ~CountOnExit() { count.fetch_add(1, std::memory_order_release); }
  };


  void IDF_CHECK_POOL_OPEN() const;  // asserts not shut down (mutex held)
  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::atomic<size_t> completed_{0};
  bool shutdown_ = false;
};

}  // namespace idf
