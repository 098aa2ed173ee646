#include "util/threadpool.hpp"

#include <cstdlib>
#include <string>

#include "obs/span.hpp"

namespace mpass::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] {
      obs::set_thread_name("pool-worker-" + std::to_string(i));
      help_until([this] { return stop_ && tasks_.empty(); });
    });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool([] {
    if (const char* v = std::getenv("MPASS_THREADS"); v && *v) {
      const unsigned long long n = std::strtoull(v, nullptr, 10);
      if (n > 0) return static_cast<std::size_t>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw > 0 ? hw : 1);
  }());
  return pool;
}

void ThreadPool::push(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    tasks_.push_back(std::move(task));
  }
  // All sleepers wake: a waiter whose future just became ready returns
  // without popping, so a single notification could be swallowed.
  cv_.notify_all();
}

void ThreadPool::help_until(const std::function<bool()>& done) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] { return done() || !tasks_.empty(); });
    if (done()) return;
    std::function<void()> task = std::move(tasks_.back());
    tasks_.pop_back();
    lk.unlock();
    task();
    task = nullptr;  // release captures before reporting completion
    // mu_ is taken after the task's future became ready, so a waiter that
    // found it not ready is already asleep and wakes here.
    lk.lock();
    cv_.notify_all();
  }
}

}  // namespace mpass::util
