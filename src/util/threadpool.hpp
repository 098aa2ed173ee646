// Thread pool shared by the experiment harness and zoo training: one task
// queue.
//
// The harness submits one task per (target, attack) cell, and each cell
// task fans out one sub-task per sample, then waits for them. The model
// zoo submits one training task per byte net or AV simulator. Tasks run for
// milliseconds to seconds, so a few hundred start per second at most and
// one mutex over one std::deque is never contended.
//
// Workers and waiters pop the newest task (LIFO), so a cell's samples run
// right after it submits them. wait() *helps*: while its future is not
// ready it runs queued tasks on the calling thread, which makes nested
// submission deadlock-free even on a single worker. With the queue empty
// it sleeps on the one condition variable; every finished task takes the
// mutex and then notifies, so no wakeup is lost and nothing polls. Results
// and exceptions travel through std::future via std::packaged_task.
//
// Pool size: ThreadPool::instance() honors MPASS_THREADS, defaulting to
// std::thread::hardware_concurrency().
//
// Observability: span context (obs/span.hpp) propagates across submit():
// each task executes under a "pool.task" span named under the submitting
// call path, so the pool's work count is the pool.task span count.
#pragma once

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

#include "obs/span.hpp"

namespace mpass::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);

  /// Drains all queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool sized by MPASS_THREADS if set and positive, else
  /// by hardware_concurrency (at least 1).
  static ThreadPool& instance();

  std::size_t size() const { return workers_.size(); }

  /// Schedules a callable; the returned future carries its result or
  /// exception. The task runs under a "pool.task" span named under the
  /// calling thread's call path; the span closes before the future becomes
  /// ready, so a snapshot taken after wait() sees it.
  template <typename F, typename R = std::invoke_result_t<std::decay_t<F>&>>
  std::future<R> submit(F&& fn) {
    auto task = std::make_shared<std::packaged_task<R()>>(
        [h = obs::span_handoff_capture(),
         fn = std::forward<F>(fn)]() mutable -> R {
          const obs::SpanTaskScope span_scope(h);
          return fn();
        });
    std::future<R> fut = task->get_future();
    push([task] { (*task)(); });
    return fut;
  }

  /// Blocks until `fut` is ready, running queued pool tasks on the calling
  /// thread meanwhile so that tasks can wait on sub-tasks without deadlock.
  template <typename T>
  T wait(std::future<T> fut) {
    // A zero-timeout readiness test, not a poll: the sleep is on cv_.
    help_until([&fut] {
      return fut.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    });
    return fut.get();
  }

 private:
  void push(std::function<void()> task);
  /// Runs queued tasks (newest first) on the calling thread until `done`,
  /// which is evaluated under mu_, holds; sleeps on cv_ while the queue is
  /// empty.
  void help_until(const std::function<bool()>& done);

  std::mutex mu_;  // guards tasks_ and stop_
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace mpass::util
