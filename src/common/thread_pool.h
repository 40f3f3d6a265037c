// Fixed-size thread pool with a ParallelFor convenience wrapper.
//
// Used by the E-LINE trainer (hogwild-style asynchronous SGD shards), by
// embarrassingly parallel experiment sweeps in the bench harness, and by
// the serving registry, which also runs a lone predict on its caller while
// the pool is idle (TryRunHere).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "common/annotated_sync.h"

namespace grafics {

class ThreadPool {
 public:
  /// Creates `num_threads` workers (>= 1; 0 maps to hardware_concurrency).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task; the returned future resolves when it finishes.
  std::future<void> Submit(std::function<void()> task)
      GRAFICS_EXCLUDES(mutex_);

  /// Runs `fn` on the calling thread, but only if the pool is idle —
  /// nothing queued, nothing running, no other TryRunHere in progress — and
  /// claims the pool as busy while `fn` runs, so Submit callers and other
  /// TryRunHere callers see one more task. Returns false without running
  /// `fn` when the pool is busy. Exceptions from `fn` propagate (the claim
  /// is released first).
  template <typename Fn>
  bool TryRunHere(Fn&& fn) {
    std::size_t idle = 0;
    if (!busy_.compare_exchange_strong(idle, 1, std::memory_order_acq_rel)) {
      return false;
    }
    struct Release {
      std::atomic<std::size_t>& busy;
      ~Release() { busy.fetch_sub(1, std::memory_order_acq_rel); }
    } release{busy_};
    fn();
    return true;
  }

  /// Runs fn(begin..end) split into one contiguous chunk per worker and
  /// blocks until all chunks complete. fn receives (chunk_begin, chunk_end).
  void ParallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void WorkerLoop() GRAFICS_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar condition_;
  std::queue<std::packaged_task<void()>> tasks_ GRAFICS_GUARDED_BY(mutex_);
  bool stopping_ GRAFICS_GUARDED_BY(mutex_) = false;
  /// Tasks queued or running, plus a TryRunHere in progress: zero exactly
  /// when the pool is idle. Raised at Submit, lowered once a task returns.
  std::atomic<std::size_t> busy_{0};
};

}  // namespace grafics
