#include "runtime/thread_pool.hpp"

#include <string>
#include <utility>

#include "obs/trace.hpp"

namespace logsim::runtime {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock{mu_};
    stop_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(Task task) {
  {
    std::lock_guard lock{mu_};
    queue_.push_back(Pending{std::move(task), std::chrono::steady_clock::now()});
    ++total_submitted_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock{mu_};
  all_done_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

std::size_t ThreadPool::submitted() const {
  std::lock_guard lock{mu_};
  return total_submitted_;
}

void ThreadPool::worker_loop(std::size_t index) {
  // Name this worker's trace track up front: the call is cheap, happens
  // once per thread, and makes the Chrome trace readable even when
  // tracing is enabled mid-run.
  obs::TraceSession::global().set_thread_name("worker-" +
                                              std::to_string(index));
  for (;;) {
    Pending pending;
    {
      std::unique_lock lock{mu_};
      task_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      pending = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    const auto wait = std::chrono::steady_clock::now() - pending.enqueued;
    try {
      pending.task(wait);
    } catch (...) {
      task_exceptions_.fetch_add(1, std::memory_order_relaxed);
    }
    {
      std::lock_guard lock{mu_};
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace logsim::runtime
