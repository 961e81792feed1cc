// Fixed-size worker pool for embarrassingly parallel experiment work.
//
// Deliberately minimal: one FIFO queue, a fixed number of workers, no work
// stealing and no futures. Determinism of results is the callers' job —
// lg::run::TrialRunner achieves it by giving every job independent state and
// merging outputs in submission order, so the pool itself only needs to
// guarantee that every submitted job runs exactly once.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lg::util {

// Worker count for "use all the machine allows": the LG_THREADS environment
// variable when set (a positive integer; anything else throws
// std::invalid_argument, see util/env_knobs.h), otherwise
// std::thread::hardware_concurrency() (minimum 1).
std::size_t default_thread_count();

class ThreadPool {
 public:
  // threads == 0 picks default_thread_count().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  // Enqueue a job. Jobs must not throw out of the pool; wrap risky work and
  // stash the exception (TrialRunner captures std::exception_ptr per trial).
  void submit(std::function<void()> job);

  // Block until every job submitted so far has finished.
  void wait_idle();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // queued + currently running
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace lg::util
