// Work-stealing thread pool shared by the experiment harness.
//
// The harness's unit of parallelism is one (target, attack, sample) attack
// run -- thousands of independent tasks per grid -- so the pool is built for
// many small-to-medium tasks with nested fan-out: a cell task submits one
// sub-task per sample and then *helps* execute pending work while waiting
// (run_one / wait), which makes nested submission deadlock-free even on a
// single worker thread.
//
// Topology: one injector queue for external submitters plus one deque per
// worker. Workers pop their own deque LIFO (cache locality) and steal from
// the injector and the other workers FIFO (oldest work first). Results and
// exceptions travel through std::future via std::packaged_task.
//
// Pool size: ThreadPool::instance() honors MPASS_THREADS, defaulting to
// std::thread::hardware_concurrency().
//
// Observability: span context (obs/span.hpp) propagates across submit():
// each task executes under a "pool.task" span parented at the submitting
// call path -- so stolen tasks profile under their submitter, and the
// pool's work count is the pool.task span count -- and, with MPASS_PROFILE
// set, submit and execution are linked by Chrome flow arrows.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace mpass::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);

  /// Drains all queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool sized by MPASS_THREADS (default: hardware threads).
  static ThreadPool& instance();

  /// MPASS_THREADS if set and positive, else hardware_concurrency (>= 1).
  static std::size_t env_threads();

  std::size_t size() const { return workers_.size(); }

  /// Schedules a callable; the returned future carries its result or
  /// exception. Calls from a worker thread of this pool enqueue onto that
  /// worker's own deque (nested submission).
  template <typename F, typename R = std::invoke_result_t<std::decay_t<F>&>>
  std::future<R> submit(F&& fn) {
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    push([task] { (*task)(); });
    return fut;
  }

  /// Executes one pending task on the calling thread, if any.
  /// Callable from any thread (workers, waiters, outsiders).
  bool run_one();

  /// Blocks until `fut` is ready, executing pending pool tasks while
  /// waiting so that tasks can wait on sub-tasks without deadlock.
  template <typename T>
  T wait(std::future<T> fut) {
    while (fut.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!run_one())
        fut.wait_for(std::chrono::milliseconds(1));
    }
    return fut.get();
  }

 private:
  struct Queue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void push(std::function<void()> task);
  bool pop_back(Queue& q, std::function<void()>& out);
  bool pop_front(Queue& q, std::function<void()>& out);
  /// Own deque LIFO, then injector, then steal other workers FIFO.
  bool try_pop(std::size_t self, std::function<void()>& out);
  void worker_loop(std::size_t index);

  // queues_[0] is the injector; queues_[1 + i] belongs to worker i.
  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace mpass::util
