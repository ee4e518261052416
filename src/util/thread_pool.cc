#include "util/thread_pool.h"

#include <cassert>
#include <stdexcept>

namespace liferaft::util {

ThreadPool::ThreadPool(size_t num_threads) : num_threads_(num_threads) {
  assert(num_threads >= 1);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      throw std::runtime_error("ThreadPool::Submit after Shutdown");
    }
    tasks_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_ && workers_.empty()) return;
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shut down and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();  // packaged_task captures exceptions into the future
  }
}

}  // namespace liferaft::util
