#include "util/threadpool.hpp"

#include <cstdlib>
#include <string>

#include "obs/span.hpp"

namespace mpass::util {

namespace {
// Which pool (if any) the current thread is a worker of, and its queue
// index within that pool. Lets submit() and try_pop() route a worker's own
// tasks to its own deque; threads foreign to a pool use the injector queue.
thread_local ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_queue = 0;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  queues_.reserve(threads + 1);
  for (std::size_t i = 0; i < threads + 1; ++i)
    queues_.push_back(std::make_unique<Queue>());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  idle_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  // Tasks submitted during shutdown (rare) run inline so futures resolve.
  while (run_one()) {
  }
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool(env_threads());
  return pool;
}

std::size_t ThreadPool::env_threads() {
  if (const char* v = std::getenv("MPASS_THREADS"); v && *v) {
    const unsigned long long n = std::strtoull(v, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void ThreadPool::push(std::function<void()> task) {
  // Span propagation: a task records under the *submitting* call path (a
  // "pool.task" child span), no matter which worker steals it; with
  // MPASS_PROFILE set the handoff carries a flow id so the submit and the
  // execution are linked by a Chrome flow arrow. Disengaged (outside any
  // span, profiling off) the task runs unwrapped.
  if (const obs::SpanHandoff h = obs::span_handoff_capture(); h.engaged()) {
    task = [h, inner = std::move(task)] {
      obs::SpanTaskScope span_scope(h);
      inner();
    };
  }
  const std::size_t qi =
      (tl_pool == this) ? tl_queue : 0;  // worker deque or injector
  {
    std::lock_guard<std::mutex> lk(queues_[qi]->mu);
    queues_[qi]->tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  idle_cv_.notify_one();
}

bool ThreadPool::pop_back(Queue& q, std::function<void()>& out) {
  std::lock_guard<std::mutex> lk(q.mu);
  if (q.tasks.empty()) return false;
  out = std::move(q.tasks.back());
  q.tasks.pop_back();
  pending_.fetch_sub(1, std::memory_order_release);
  return true;
}

bool ThreadPool::pop_front(Queue& q, std::function<void()>& out) {
  std::lock_guard<std::mutex> lk(q.mu);
  if (q.tasks.empty()) return false;
  out = std::move(q.tasks.front());
  q.tasks.pop_front();
  pending_.fetch_sub(1, std::memory_order_release);
  return true;
}

bool ThreadPool::try_pop(std::size_t self, std::function<void()>& out) {
  if (self != 0 && pop_back(*queues_[self], out)) return true;  // own, LIFO
  if (pop_front(*queues_[0], out)) return true;                  // injector
  // Steal FIFO from the other workers, starting after ourselves so
  // concurrent thieves spread out.
  for (std::size_t k = 1; k < queues_.size(); ++k) {
    const std::size_t victim = 1 + (self + k) % (queues_.size() - 1);
    if (victim == self) continue;
    if (pop_front(*queues_[victim], out)) return true;
  }
  return false;
}

bool ThreadPool::run_one() {
  std::function<void()> task;
  const std::size_t self = (tl_pool == this) ? tl_queue : 0;
  if (!try_pop(self, task)) return false;
  task();
  return true;
}

void ThreadPool::worker_loop(std::size_t index) {
  tl_pool = this;
  tl_queue = 1 + index;
  obs::set_thread_name("pool-worker-" + std::to_string(index));
  std::function<void()> task;
  for (;;) {
    if (try_pop(tl_queue, task)) {
      task();
      task = nullptr;  // release captures before sleeping
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    std::unique_lock<std::mutex> lk(idle_mu_);
    idle_cv_.wait_for(lk, std::chrono::milliseconds(50), [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
  }
}

}  // namespace mpass::util
