// A fixed-size worker pool for data-parallel batch work.
//
// The pool owns `num_threads` workers that share one FIFO task queue under
// one mutex; a condition variable wakes an idle worker per submitted task.
// Whichever worker is free takes the front task, so one worker blocked on
// a long task never holds up the tasks queued behind it.
//
// Submit() returns a std::future for the task's result; exceptions thrown
// by a task are captured and rethrown from future::get(), so callers see
// worker failures exactly as they would see their own. Destruction (or an
// explicit Shutdown()) finishes every task already queued, then joins the
// workers — no task is ever dropped.
//
// Determinism note: which thread runs a task (and in what interleaving)
// is unspecified; LifeRaft's callers merge results in submission order
// (see join::JoinEvaluator), so scheduling never changes any result.

#ifndef LIFERAFT_UTIL_THREAD_POOL_H_
#define LIFERAFT_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace liferaft::util {

class ThreadPool {
 public:
  /// Starts `num_threads` workers immediately. `num_threads` must be >= 1.
  explicit ThreadPool(size_t num_threads);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn(args...)`; the returned future yields its result (or
  /// rethrows its exception). Submitting after Shutdown() throws.
  template <typename Fn, typename... Args>
  auto Submit(Fn&& fn, Args&&... args)
      -> std::future<std::invoke_result_t<Fn, Args...>> {
    using R = std::invoke_result_t<Fn, Args...>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [fn = std::forward<Fn>(fn),
         ... args = std::forward<Args>(args)]() mutable {
          return std::invoke(std::move(fn), std::move(args)...);
        });
    std::future<R> result = task->get_future();
    Enqueue([task]() mutable { (*task)(); });
    return result;
  }

  /// Stops accepting work, finishes every queued task, joins the workers.
  /// Idempotent; called by the destructor.
  void Shutdown();

  /// The construction-time worker count (stable across Shutdown).
  size_t num_threads() const { return num_threads_; }

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  std::mutex mu_;  // guards tasks_ and shutdown_
  std::condition_variable wake_;
  std::deque<std::function<void()>> tasks_;
  bool shutdown_ = false;
  size_t num_threads_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace liferaft::util

#endif  // LIFERAFT_UTIL_THREAD_POOL_H_
