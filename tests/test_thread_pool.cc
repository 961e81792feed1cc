#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

namespace lg::util {
namespace {

// Saves and restores LG_THREADS around a test.
class ThreadsEnvGuard {
 public:
  ThreadsEnvGuard() {
    if (const char* v = std::getenv("LG_THREADS")) saved_ = v;
  }
  ~ThreadsEnvGuard() {
    if (saved_.empty()) {
      ::unsetenv("LG_THREADS");
    } else {
      ::setenv("LG_THREADS", saved_.c_str(), 1);
    }
  }

 private:
  std::string saved_;
};

TEST(DefaultThreadCountTest, HonorsLgThreadsEnv) {
  const ThreadsEnvGuard guard;
  ::setenv("LG_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3u);
  ::setenv("LG_THREADS", "1", 1);
  EXPECT_EQ(default_thread_count(), 1u);
}

// LG_THREADS parses strictly (util/env_knobs.h): a value that is not a
// positive integer throws instead of quietly using every hardware thread.
TEST(DefaultThreadCountTest, RejectsInvalidEnvValues) {
  const ThreadsEnvGuard guard;
  for (const char* bad : {"0", "-4", "banana", "4x", ""}) {
    ::setenv("LG_THREADS", bad, 1);
    EXPECT_THROW(default_thread_count(), std::invalid_argument) << bad;
  }
  ::unsetenv("LG_THREADS");
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(ThreadPoolTest, ReportsRequestedSize) {
  const ThreadPool one(1);
  EXPECT_EQ(one.size(), 1u);
  const ThreadPool four(4);
  EXPECT_EQ(four.size(), 4u);
}

TEST(ThreadPoolTest, RunsEverySubmittedJobExactlyOnce) {
  ThreadPool pool(4);
  std::atomic<int> runs{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&runs] { runs.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(runs.load(), 200);
}

TEST(ThreadPoolTest, WaitIdleBlocksUntilJobsFinish) {
  ThreadPool pool(2);
  std::atomic<bool> done{false};
  pool.submit([&done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    done.store(true);
  });
  pool.wait_idle();
  EXPECT_TRUE(done.load());
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
}

TEST(ThreadPoolTest, JobsRunOnWorkerThreads) {
  ThreadPool pool(2);
  std::atomic<bool> on_other_thread{false};
  const auto main_id = std::this_thread::get_id();
  pool.submit([&] {
    if (std::this_thread::get_id() != main_id) on_other_thread.store(true);
  });
  pool.wait_idle();
  EXPECT_TRUE(on_other_thread.load());
}

TEST(ThreadPoolTest, JobsMaySubmitMoreJobs) {
  ThreadPool pool(2);
  std::atomic<int> runs{0};
  pool.submit([&] {
    runs.fetch_add(1);
    pool.submit([&] { runs.fetch_add(1); });
  });
  // wait_idle counts the nested job: it is submitted (and in_flight_
  // incremented) before the outer job completes.
  pool.wait_idle();
  EXPECT_EQ(runs.load(), 2);
}

TEST(ThreadPoolTest, DestructorDrainsPendingQueue) {
  std::atomic<int> runs{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&runs] { runs.fetch_add(1); });
    }
    // No wait_idle: the destructor must still run everything queued.
  }
  EXPECT_EQ(runs.load(), 50);
}

TEST(ThreadPoolTest, ManyJobsAcrossFewWorkersAllComplete) {
  ThreadPool pool(3);
  std::atomic<std::uint64_t> sum{0};
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    pool.submit([&sum, i] { sum.fetch_add(i); });
  }
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 1000ull * 1001ull / 2ull);
}

}  // namespace
}  // namespace lg::util
