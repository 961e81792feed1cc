// lg::run::TrialRunner: the thread count rule, the fan-out (every trial
// once, the caller taking part), the determinism contract (identical
// results, merged metrics, and merged traces for ANY thread count), seed
// independence, exception propagation, and observability and plane scoping.
#include "run/trial_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "adversary/adversary_plane.h"
#include "faults/fault_plane.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "workload/sim_world.h"

namespace lg::run {
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
  EXPECT_EQ(thread_count(0), 3u);
  EXPECT_EQ(thread_count(5), 5u);  // a request overrides the environment
  ::setenv("LG_THREADS", "1", 1);
  EXPECT_EQ(thread_count(0), 1u);
}

// LG_THREADS parses strictly (util/env_knobs.h): a value that is not a
// positive integer throws instead of quietly using every hardware thread.
TEST(DefaultThreadCountTest, RejectsInvalidEnvValues) {
  const ThreadsEnvGuard guard;
  for (const char* bad : {"0", "-4", "banana", "4x", ""}) {
    ::setenv("LG_THREADS", bad, 1);
    EXPECT_THROW(thread_count(0), std::invalid_argument) << bad;
  }
  ::unsetenv("LG_THREADS");
  EXPECT_GE(thread_count(0), 1u);
}

// At one thread no thread is started: the caller runs every trial.
TEST(TrialRunnerTest, OneThreadRunsEveryTrialOnTheCaller) {
  TrialRunner runner(TrialRunnerConfig{.threads = 1});
  const auto ids = runner.run(
      8, [](TrialContext&) { return std::this_thread::get_id(); });
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], std::this_thread::get_id()) << "trial " << i;
  }
}

TEST(TrialRunnerTest, ReportsRequestedThreadCount) {
  for (const std::size_t threads : {1, 2, 3, 4, 8}) {
    const TrialRunner runner(TrialRunnerConfig{.threads = threads});
    EXPECT_EQ(runner.threads(), threads);
  }
}

// Every trial runs exactly once, on at most min(threads, n) threads.
TEST(TrialRunnerTest, EveryTrialRunsOnceOnAtMostMinThreads) {
  for (const std::size_t threads : {1, 2, 3, 8}) {
    for (const std::size_t n : {1, 2, 5, 16}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", trials " +
                   std::to_string(n));
      TrialRunner runner(TrialRunnerConfig{.threads = threads});
      std::vector<std::atomic<int>> runs(n);
      const auto ids = runner.run(n, [&runs](TrialContext& ctx) {
        runs[ctx.index].fetch_add(1);
        return std::this_thread::get_id();
      });
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(runs[i].load(), 1);
      const std::set<std::thread::id> distinct(ids.begin(), ids.end());
      EXPECT_LE(distinct.size(), std::min(threads, n));
    }
  }
}

// Far more trials than threads: every one completes, and each result
// lands in its own slot.
TEST(TrialRunnerTest, ManyTrialsAcrossFewThreadsAllComplete) {
  TrialRunner runner(TrialRunnerConfig{.threads = 3});
  std::atomic<std::uint64_t> sum{0};
  const auto results = runner.run(1000, [&sum](TrialContext& ctx) {
    const std::uint64_t v = ctx.index + 1;
    sum.fetch_add(v);
    return v;
  });
  EXPECT_EQ(sum.load(), 1000ull * 1001ull / 2ull);
  ASSERT_EQ(results.size(), 1000u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i + 1);
  }
}

TEST(TrialSeedTest, DeterministicAndDistinct) {
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < 1000; ++i) {
    const std::uint64_t s = trial_seed(42, i);
    EXPECT_EQ(s, trial_seed(42, i));
    seen.insert(s);
  }
  // All distinct (SplitMix64 is a bijection over distinct inputs).
  EXPECT_EQ(seen.size(), 1000u);
  // Different base seeds give different streams.
  EXPECT_NE(trial_seed(42, 0), trial_seed(43, 0));
}

TEST(TrialRunnerTest, ResultsArriveInTrialIndexOrder) {
  TrialRunnerConfig cfg;
  cfg.threads = 4;
  TrialRunner runner(cfg);
  const auto results = runner.run(
      100, [](TrialContext& ctx) { return ctx.index * 2 + 1; });
  ASSERT_EQ(results.size(), 100u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * 2 + 1);
  }
}

TEST(TrialRunnerTest, ContextReportsTotalsAndSeeds) {
  TrialRunnerConfig cfg;
  cfg.threads = 2;
  cfg.base_seed = 7;
  TrialRunner runner(cfg);
  const auto seeds = runner.run(8, [](TrialContext& ctx) {
    EXPECT_EQ(ctx.total, 8u);
    EXPECT_NE(ctx.metrics, nullptr);
    EXPECT_NE(ctx.trace, nullptr);
    return ctx.seed;
  });
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(seeds[i], trial_seed(7, i));
  }
}

std::vector<double> rng_workload(std::size_t threads) {
  TrialRunnerConfig cfg;
  cfg.threads = threads;
  TrialRunner runner(cfg);
  return runner.run(32, [](TrialContext& ctx) {
    util::Rng rng(ctx.seed, 0x7472ULL);
    double acc = 0.0;
    for (int i = 0; i < 1000; ++i) acc += rng.uniform(0.0, 1.0);
    return acc;
  });
}

TEST(TrialRunnerTest, ResultsIdenticalForAnyThreadCount) {
  const auto serial = rng_workload(1);
  const auto parallel = rng_workload(8);
  // Byte-identical, not approximately equal: same seeds, same fold order.
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "trial " << i;
  }
}

// Runs a metric-producing workload into a fresh destination registry and
// returns the merged (counter value, gauge value, distribution mean).
struct MergedObs {
  std::uint64_t counter = 0;
  double gauge_value = 0.0;
  double gauge_max = 0.0;
  double dist_mean = 0.0;
  std::size_t dist_count = 0;
};

MergedObs merged_obs_workload(std::size_t threads) {
  obs::MetricsRegistry dst;
  dst.set_enabled(true);
  const obs::ScopedMetricsRegistry scope(dst);

  TrialRunnerConfig cfg;
  cfg.threads = threads;
  TrialRunner runner(cfg);
  runner.run(16, [](TrialContext& ctx) {
    auto& reg = obs::MetricsRegistry::current();
    EXPECT_EQ(&reg, ctx.metrics);  // the trial registry is thread-current
    reg.counter("t.count").inc(ctx.index + 1);
    reg.gauge("t.gauge").set(static_cast<double>(ctx.index));
    reg.distribution("t.dist").observe(static_cast<double>(ctx.index) * 0.5);
    return 0;
  });

  MergedObs out;
  out.counter = dst.counter("t.count").value();
  out.gauge_value = dst.gauge("t.gauge").value();
  out.gauge_max = dst.gauge("t.gauge").max();
  out.dist_mean = dst.distribution("t.dist").summary().mean();
  out.dist_count = dst.distribution("t.dist").summary().count();
  return out;
}

TEST(TrialRunnerTest, MergedMetricsIdenticalForAnyThreadCount) {
  const MergedObs serial = merged_obs_workload(1);
  const MergedObs parallel = merged_obs_workload(8);

  // 1 + 2 + ... + 16.
  EXPECT_EQ(serial.counter, 136u);
  EXPECT_EQ(parallel.counter, 136u);
  // Gauges merge last-writer-wins in index order: trial 15.
  EXPECT_EQ(serial.gauge_value, 15.0);
  EXPECT_EQ(parallel.gauge_value, 15.0);
  EXPECT_EQ(serial.gauge_max, 15.0);
  EXPECT_EQ(parallel.gauge_max, 15.0);
  // Distributions concatenate in index order; FP fold order is fixed, so
  // the means are bit-identical.
  EXPECT_EQ(serial.dist_count, 16u);
  EXPECT_EQ(parallel.dist_count, 16u);
  EXPECT_EQ(serial.dist_mean, parallel.dist_mean);
}

TEST(TrialRunnerTest, MergedTracesArriveInTrialIndexOrder) {
  obs::TraceRing dst(256);
  dst.set_enabled(true);
  const obs::ScopedTraceRing scope(dst);

  TrialRunnerConfig cfg;
  cfg.threads = 4;
  TrialRunner runner(cfg);
  runner.run(10, [](TrialContext& ctx) {
    obs::TraceRing::current().record(static_cast<double>(ctx.index),
                                     obs::TraceKind::kUpdateSent, ctx.index);
    return 0;
  });

  const auto events = dst.events();
  ASSERT_EQ(events.size(), 10u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, i);
  }
}

TEST(TrialRunnerTest, DisabledObservabilityStaysDisabledInTrials) {
  obs::MetricsRegistry dst;
  dst.set_enabled(false);
  const obs::ScopedMetricsRegistry scope(dst);

  TrialRunner runner(TrialRunnerConfig{.threads = 2});
  runner.run(4, [](TrialContext&) {
    // Trial registries inherit the destination's enabled flag.
    EXPECT_FALSE(obs::MetricsRegistry::current().enabled());
    obs::MetricsRegistry::current().counter("t.off").inc();
    return 0;
  });
  EXPECT_EQ(dst.counter("t.off").value(), 0u);
}

// The fault and adversary planes are thread-current like the obs sinks, but
// the runner installs only their disabled fallbacks: a trial sees exactly
// the planes it scopes itself, a trial that scopes none sees the fallbacks
// (on the calling thread too, where the caller's planes are installed), and
// the planes current where run() was called are still current afterwards.
void expect_planes_scoped_per_trial(std::size_t threads) {
  SCOPED_TRACE("threads " + std::to_string(threads));
  obs::MetricsRegistry dst;  // receives the trial planes' lg.* counters
  const obs::ScopedMetricsRegistry metrics_scope(dst);
  faults::FaultPlane caller_faults(faults::FaultConfig::at_intensity(0.5));
  adversary::AdversaryPlane caller_adversary(
      adversary::AdversaryConfig::at_prevalence(0.5));
  const faults::ScopedFaultPlane fault_scope(caller_faults);
  const adversary::ScopedAdversaryPlane adversary_scope(caller_adversary);

  TrialRunner runner(TrialRunnerConfig{.threads = threads});
  const auto seen_own = runner.run(16, [](TrialContext& ctx) {
    faults::FaultConfig fcfg = faults::FaultConfig::at_intensity(0.5);
    fcfg.seed = ctx.seed;
    adversary::AdversaryConfig acfg =
        adversary::AdversaryConfig::at_prevalence(0.5);
    acfg.seed = ctx.seed;
    faults::FaultPlane faults_plane(fcfg);
    adversary::AdversaryPlane adversary_plane(acfg);
    const bool installs = ctx.index % 4 != 0;
    std::optional<faults::ScopedFaultPlane> trial_faults;
    std::optional<adversary::ScopedAdversaryPlane> trial_adversary;
    if (installs) {
      trial_faults.emplace(faults_plane);
      trial_adversary.emplace(adversary_plane);
    }
    const faults::FaultPlane& want_faults =
        installs ? faults_plane : faults::FaultPlane::fallback();
    const adversary::AdversaryPlane& want_adversary =
        installs ? adversary_plane : adversary::AdversaryPlane::fallback();
    // Re-read while the other workers run their trials.
    for (int k = 0; k < 200; ++k) {
      if (&faults::FaultPlane::current() != &want_faults ||
          &adversary::AdversaryPlane::current() != &want_adversary ||
          faults::FaultPlane::current().enabled() != installs ||
          adversary::AdversaryPlane::current().enabled() != installs) {
        return false;
      }
      std::this_thread::yield();
    }
    return true;
  });
  for (std::size_t i = 0; i < seen_own.size(); ++i) {
    EXPECT_TRUE(seen_own[i]) << "trial " << i;
  }
  EXPECT_EQ(&faults::FaultPlane::current(), &caller_faults);
  EXPECT_EQ(&adversary::AdversaryPlane::current(), &caller_adversary);
  EXPECT_EQ(caller_faults.injected(), 0u);
}

TEST(TrialRunnerTest, PlanesAreScopedPerTrialThread) {
  expect_planes_scoped_per_trial(1);
  expect_planes_scoped_per_trial(4);
}

TEST(TrialRunnerTest, LowestIndexExceptionPropagates) {
  TrialRunner runner(TrialRunnerConfig{.threads = 4});
  try {
    runner.run(10, [](TrialContext& ctx) {
      if (ctx.index == 7 || ctx.index == 3) {
        throw std::runtime_error("trial " + std::to_string(ctx.index));
      }
      return 0;
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "trial 3");
  }
}

TEST(TrialRunnerTest, ZeroTrialsIsANoOp) {
  TrialRunner runner(TrialRunnerConfig{.threads = 2});
  const auto results = runner.run(0, [](TrialContext&) { return 1; });
  EXPECT_TRUE(results.empty());
}

// End-to-end: full SimWorlds in parallel trials produce identical BGP
// behaviour (message counts) and identical merged lg.* metrics regardless
// of thread count — the contract the converted bench harnesses rely on.
struct WorldRun {
  std::vector<std::uint64_t> messages;
  std::uint64_t updates_sent = 0;
  std::uint64_t sched_executed = 0;
};

WorldRun world_workload(std::size_t threads) {
  obs::MetricsRegistry dst;
  dst.set_enabled(true);
  const obs::ScopedMetricsRegistry scope(dst);

  TrialRunnerConfig cfg;
  cfg.threads = threads;
  TrialRunner runner(cfg);
  WorldRun out;
  out.messages = runner.run(3, [](TrialContext& ctx) {
    auto config = workload::SimWorld::small_config(ctx.seed);
    workload::SimWorld world(config);
    world.announce_production(world.topology().stubs.front());
    world.converge();
    return world.engine().total_messages();
  });
  out.updates_sent = dst.counter("lg.bgp.updates_sent").value();
  out.sched_executed = dst.counter("lg.scheduler.events_executed").value();
  return out;
}

TEST(TrialRunnerTest, SimWorldTrialsDeterministicAcrossThreadCounts) {
  const WorldRun serial = world_workload(1);
  const WorldRun parallel = world_workload(3);
  EXPECT_EQ(serial.messages, parallel.messages);
  EXPECT_EQ(serial.updates_sent, parallel.updates_sent);
  EXPECT_EQ(serial.sched_executed, parallel.sched_executed);
  EXPECT_GT(serial.updates_sent, 0u);
  EXPECT_GT(serial.sched_executed, 0u);
}

}  // namespace
}  // namespace lg::run
