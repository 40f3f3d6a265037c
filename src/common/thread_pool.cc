#include "common/thread_pool.h"

#include <algorithm>

#include "common/error.h"

namespace grafics {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(&mutex_);
    stopping_ = true;
  }
  condition_.NotifyAll();
  for (auto& worker : workers_) worker.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    const MutexLock lock(&mutex_);
    Require(!stopping_, "ThreadPool::Submit after shutdown");
    busy_.fetch_add(1, std::memory_order_acq_rel);
    tasks_.push(std::move(packaged));
  }
  condition_.NotifyOne();
  return future;
}

void ThreadPool::ParallelFor(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  const std::size_t chunks = std::min(total, num_threads());
  const std::size_t chunk_size = (total + chunks - 1) / chunks;

  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    const std::size_t hi = std::min(end, lo + chunk_size);
    if (lo >= hi) break;
    futures.push_back(Submit([&fn, lo, hi] { fn(lo, hi); }));
  }
  for (auto& future : futures) future.get();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      const MutexLock lock(&mutex_);
      while (!stopping_ && tasks_.empty()) condition_.Wait(mutex_);
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    busy_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

}  // namespace grafics
