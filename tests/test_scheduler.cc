#include "util/scheduler.h"

#include <gtest/gtest.h>

#include <vector>

namespace lg::util {
namespace {

TEST(SchedulerTest, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.at(3.0, [&] { order.push_back(3); });
  sched.at(1.0, [&] { order.push_back(1); });
  sched.at(2.0, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sched.now(), 3.0);
}

TEST(SchedulerTest, EqualTimestampsAreFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.at(5.0, [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SchedulerTest, AfterSchedulesRelative) {
  Scheduler sched;
  double fired_at = -1;
  sched.at(10.0, [&] {
    sched.after(5.0, [&] { fired_at = sched.now(); });
  });
  sched.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(SchedulerTest, PastTimesClampToNow) {
  Scheduler sched;
  double fired_at = -1;
  sched.at(10.0, [&] {
    sched.at(1.0, [&] { fired_at = sched.now(); });  // in the past
  });
  sched.run();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(SchedulerTest, RunUntilStopsEarly) {
  Scheduler sched;
  int count = 0;
  sched.at(1.0, [&] { ++count; });
  sched.at(10.0, [&] { ++count; });
  sched.run(5.0);
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(sched.now(), 5.0);  // clock advances to the bound
  sched.run();
  EXPECT_EQ(count, 2);
}

TEST(SchedulerTest, EventsScheduledDuringRunExecute) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sched.after(1.0, recurse);
  };
  sched.after(1.0, recurse);
  sched.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sched.now(), 5.0);
}

TEST(SchedulerTest, PendingAndExecutedCounters) {
  Scheduler sched;
  sched.at(1.0, [] {});
  sched.at(2.0, [] {});
  EXPECT_EQ(sched.pending(), 2u);
  EXPECT_FALSE(sched.empty());
  sched.run();
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.executed(), 2u);
}

TEST(SchedulerTest, StepExecutesExactlyOne) {
  Scheduler sched;
  int count = 0;
  sched.at(1.0, [&] { ++count; });
  sched.at(2.0, [&] { ++count; });
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(sched.step());
  EXPECT_EQ(count, 2);
}

TEST(SchedulerTest, StepBatchRunsAllEventsAtEarliestDeadline) {
  Scheduler sched;
  std::vector<int> order;
  sched.at(1.0, [&] { order.push_back(0); });
  sched.at(1.0, [&] {
    order.push_back(1);
    // Scheduled during the batch at the same instant: joins the batch.
    sched.at(1.0, [&] { order.push_back(3); });
  });
  sched.at(1.0, [&] { order.push_back(2); });
  sched.at(2.0, [&] { order.push_back(9); });
  EXPECT_EQ(sched.step_batch(), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sched.step_batch(), 1u);
  EXPECT_EQ(sched.step_batch(), 0u);
}

TEST(SchedulerTest, StepBatchHonorsBound) {
  Scheduler sched;
  int count = 0;
  sched.at(10.0, [&] { ++count; });
  EXPECT_EQ(sched.step_batch(5.0), 0u);
  EXPECT_EQ(count, 0);
}

}  // namespace
}  // namespace lg::util
