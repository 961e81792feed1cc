// lg::fleet — the concurrent outage-response service plane:
//  * budget math: the lazy token buckets grant/deny deterministically and
//    the probe-admission estimate tracks measured isolation cost;
//  * target table: balanced shard quotas and deterministic enumeration;
//  * episode state machine edges: the full remediate/verify/revert cycle,
//    a flapping target re-entering from HOLDDOWN, announcement-budget
//    exhaustion deferring then resuming an episode, and VERIFY failing
//    back to ISOLATE when the remediated path is dead too;
//  * fleet scheduler: byte-identical fingerprints for any thread count and
//    announcement spend within the configured cap;
//  * fuzz: seed sweeps through the fleet plane leave the engine
//    invariant-clean, with LG_CHECK_SEED replay.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/fuzzer.h"
#include "core/remediation.h"
#include "fleet/budget.h"
#include "fleet/episode_manager.h"
#include "fleet/fleet_scheduler.h"
#include "fleet/fuzz.h"
#include "fleet/service_plane.h"
#include "fleet/target_table.h"
#include "util/hashing.h"
#include "workload/scenarios.h"
#include "workload/sim_world.h"

namespace lg {
namespace {

using core::FailureDirection;
using core::RepairAction;
using fleet::AnnouncementBudget;
using fleet::EpisodeManager;
using fleet::EpisodeOutcome;
using fleet::MonitoredTarget;
using fleet::ProbeAdmission;
using fleet::TokenBucket;
using topo::AsId;

// ---------------------------------------------------------------- budgets

TEST(TokenBucketTest, StartsFullSpendsAndRefills) {
  TokenBucket b(1.0, 10.0);
  EXPECT_DOUBLE_EQ(b.level(0.0), 10.0);
  EXPECT_TRUE(b.try_spend(0.0, 4.0));
  EXPECT_DOUBLE_EQ(b.level(0.0), 6.0);
  // Two seconds later two tokens came back; nine is still too many.
  EXPECT_FALSE(b.try_spend(2.0, 9.0));
  EXPECT_DOUBLE_EQ(b.level(2.0), 8.0);
  // At t=4 the bucket is back to its burst cap and the spend clears it.
  EXPECT_TRUE(b.try_spend(4.0, 10.0));
  EXPECT_DOUBLE_EQ(b.level(4.0), 0.0);
  EXPECT_EQ(b.granted(), 2u);
  EXPECT_EQ(b.denied(), 1u);
  EXPECT_DOUBLE_EQ(b.spent(), 14.0);
}

TEST(TokenBucketTest, RefillNeverExceedsBurst) {
  TokenBucket b(100.0, 5.0);
  ASSERT_TRUE(b.try_spend(0.0, 5.0));
  EXPECT_DOUBLE_EQ(b.level(1000.0), 5.0);
  EXPECT_DOUBLE_EQ(b.capacity(10.0), 5.0 + 100.0 * 10.0);
}

TEST(TokenBucketTest, DebitAndCreditAreSettlementOnly) {
  TokenBucket b(0.0, 8.0);
  // Debit draws down (clamped at zero) without touching grant/deny stats.
  b.debit(0.0, 3.0);
  EXPECT_DOUBLE_EQ(b.level(0.0), 5.0);
  b.debit(0.0, 100.0);
  EXPECT_DOUBLE_EQ(b.level(0.0), 0.0);
  EXPECT_EQ(b.granted(), 0u);
  EXPECT_EQ(b.denied(), 0u);
  EXPECT_DOUBLE_EQ(b.spent(), 8.0);
  // Credit returns tokens but can never overfill the burst.
  b.credit(3.0);
  EXPECT_DOUBLE_EQ(b.level(0.0), 3.0);
  b.credit(100.0);
  EXPECT_DOUBLE_EQ(b.level(0.0), 8.0);
}

TEST(ProbeAdmissionTest, EstimateTracksMeasuredCostAndDefers) {
  ProbeAdmission adm(0.0, 600.0);
  EXPECT_DOUBLE_EQ(adm.cost_estimate(), 280.0);
  ASSERT_TRUE(adm.try_admit(0.0));
  // The isolation turned out cheaper: the difference is credited back and
  // the EWMA moves 30% of the way toward the measurement.
  adm.settle(0.0, 100.0);
  EXPECT_DOUBLE_EQ(adm.bucket().level(0.0), 600.0 - 100.0);
  EXPECT_NEAR(adm.cost_estimate(), 0.7 * 280.0 + 0.3 * 100.0, 1e-9);
  // Burst-only bucket: admissions defer once the depth is exhausted.
  ASSERT_TRUE(adm.try_admit(0.0));
  adm.settle(0.0, 300.0);
  EXPECT_FALSE(adm.try_admit(0.0));
  EXPECT_EQ(adm.admitted(), 2u);
  EXPECT_EQ(adm.deferred(), 1u);
}

// ----------------------------------------------------------- target table

TEST(TargetTableTest, ShardQuotasAreBalancedAndSumToTotal) {
  fleet::TargetTable table(103, 16);
  std::size_t sum = 0;
  std::size_t lo = SIZE_MAX, hi = 0;
  for (std::size_t s = 0; s < table.shards(); ++s) {
    const std::size_t q = table.shard_quota(s);
    sum += q;
    lo = std::min(lo, q);
    hi = std::max(hi, q);
  }
  EXPECT_EQ(sum, 103u);
  EXPECT_LE(hi - lo, 1u);
  // The first total % shards shards carry the remainder.
  EXPECT_EQ(table.shard_quota(0), 7u);
  EXPECT_EQ(table.shard_quota(7), 6u);
}

TEST(TargetTableTest, EnumerateSkipsOriginAndIsDeterministic) {
  workload::SimWorld world(workload::SimWorld::small_config(7));
  const AsId origin = world.topology().stubs.front();
  const auto targets = fleet::TargetTable::enumerate(world, origin, 24);
  ASSERT_FALSE(targets.empty());
  EXPECT_LE(targets.size(), 24u);
  std::set<topo::Ipv4> addrs;
  for (const auto& t : targets) {
    EXPECT_NE(t.as, origin);
    EXPECT_NE(t.as, topo::kInvalidAs);
    EXPECT_GT(t.weight, 0.0);
    addrs.insert(t.addr);
  }
  EXPECT_EQ(addrs.size(), targets.size()) << "duplicate monitored address";

  workload::SimWorld world2(workload::SimWorld::small_config(7));
  const auto again = fleet::TargetTable::enumerate(world2, origin, 24);
  ASSERT_EQ(again.size(), targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(again[i].addr, targets[i].addr);
    EXPECT_EQ(again[i].as, targets[i].as);
  }
}

// -------------------------------------------- episode state machine edges

// Shared setup: a small world whose origin announces its baseline before
// the scenario search (the generator needs steady-state routes), helper
// vantage points with announced production prefixes, and a reverse-failure
// scenario whose culprit the decider is willing to poison. The
// EpisodeManager takes its target list at construction, so unlike the
// core::Lifeguard test the scenario must be found *first* and the manager
// built around it.
class FleetEpisodeTest : public ::testing::Test {
 protected:
  FleetEpisodeTest() : world_(workload::SimWorld::small_config(31)) {}

  AsId pick_origin() {
    const AsId as = world_.topology().first_multihomed_stub();
    if (as == topo::kInvalidAs) {
      ADD_FAILURE() << "no multihomed stub in topology";
    }
    return as;
  }

  void announce_world(AsId origin) {
    for (const AsId as : world_.stub_vantage_ases(5)) {
      if (as == origin) continue;
      world_.announce_production(as);
      helpers_.push_back(measure::VantagePoint::in_as(as));
    }
    // Pre-announce the baseline the manager will (idempotently) re-announce
    // in start(): the scenario generator needs converged routes.
    core::Remediator warmup(world_.engine(), origin);
    warmup.announce_baseline();
    world_.converge();
  }

  std::optional<workload::FailureScenario> find_poisonable(
      workload::ScenarioGenerator& gen, AsId origin) {
    std::vector<AsId> witness_ases;
    for (const auto& h : helpers_) witness_ases.push_back(h.as);
    for (const AsId target_as : world_.topology().stubs) {
      if (target_as == origin) continue;
      auto s = gen.make(origin, target_as, FailureDirection::kReverse, false,
                        witness_ases);
      if (!s) continue;
      core::PoisonDecider decider(world_.graph());
      const AsId sources[] = {target_as};
      if (!decider.decide(origin, s->culprit_as, 1000.0, sources).poison) {
        gen.repair(*s);
        continue;
      }
      return s;
    }
    return std::nullopt;
  }

  void inject(workload::FailureScenario& s, AsId origin) {
    s.failure_ids.push_back(world_.failures().inject(
        dp::Failure{.at_as = s.culprit_as, .toward_as = origin}));
  }

  workload::SimWorld world_;
  std::vector<measure::VantagePoint> helpers_;
};

TEST_F(FleetEpisodeTest, RemediateVerifyRevertCycleThenFlapReentry) {
  const AsId origin = pick_origin();
  announce_world(origin);
  workload::ScenarioGenerator gen(world_, 41);
  auto scenario = find_poisonable(gen, origin);
  ASSERT_TRUE(scenario.has_value()) << "no poisonable scenario found";
  gen.repair(*scenario);

  AnnouncementBudget announce(60.0 / 3600.0, 16.0);
  ProbeAdmission admission(10.0, 600.0);
  EpisodeManager manager(
      world_, origin,
      {MonitoredTarget{scenario->target, scenario->target_as, 1.0}}, announce,
      admission);
  manager.set_helpers(helpers_);
  manager.start(world_.scheduler().now() + 3.0 * 3600.0);
  world_.advance(1300.0);  // baseline re-announced, atlas warm, healthy rounds

  // ---- cycle 1: detect -> isolate -> poison -> verify -> revert ----
  inject(*scenario, origin);
  world_.advance(1500.0);

  ASSERT_EQ(manager.episodes().size(), 1u);
  {
    const auto& rec = manager.episodes().front();
    EXPECT_EQ(rec.outcome, EpisodeOutcome::kOpen);
    EXPECT_EQ(rec.isolation.direction, FailureDirection::kReverse);
    EXPECT_EQ(rec.blamed, scenario->culprit_as);
    EXPECT_EQ(rec.action, RepairAction::kPoison);
    EXPECT_GT(rec.remediated_at, rec.detected_at);
    EXPECT_GE(rec.detected_at, rec.opened_at);
    EXPECT_EQ(rec.flap_generation, 0);
    EXPECT_LT(rec.repaired_at, 0.0) << "underlying failure still present";
  }
  EXPECT_EQ(manager.active_poisons(), 1u);
  // The poisoned announcement restored reachability on the production path.
  const auto& vp = manager.vantage();
  EXPECT_TRUE(world_.prober().ping(vp.as, scenario->target, vp.addr).replied);

  // Operator repairs the underlying fault; the sentinel sees the original
  // path heal and the poison is reverted.
  gen.repair(*scenario);
  world_.advance(400.0);
  {
    const auto& rec = manager.episodes().front();
    EXPECT_EQ(rec.outcome, EpisodeOutcome::kRemediated);
    EXPECT_GT(rec.repaired_at, 0.0);
    EXPECT_GE(rec.closed_at, rec.repaired_at);
  }
  EXPECT_EQ(manager.active_poisons(), 0u);
  EXPECT_EQ(manager.open_episodes(), 0u);
  EXPECT_EQ(manager.flap_reentries(), 0u);

  // ---- cycle 2: the same target flaps during the holddown window ----
  inject(*scenario, origin);
  // Failed rounds accumulate through HOLDDOWN (600 s); on expiry the streak
  // re-enters SUSPECT directly and a flap-generation-1 episode opens.
  world_.advance(2200.0);
  ASSERT_EQ(manager.episodes().size(), 2u);
  EXPECT_EQ(manager.flap_reentries(), 1u);
  {
    const auto& rec = manager.episodes()[1];
    EXPECT_EQ(rec.flap_generation, 1);
    EXPECT_EQ(rec.action, RepairAction::kPoison);
    // The blame may differ from cycle 1: the rotating atlas slice can have
    // re-traced the target mid-outage, shifting which on-path AS the
    // isolation pins down. Any actionable blame is acceptable here.
    EXPECT_NE(rec.blamed, topo::kInvalidAs);
  }
  EXPECT_EQ(manager.active_poisons(), 1u);

  gen.repair(*scenario);
  world_.advance(400.0);
  EXPECT_EQ(manager.episodes()[1].outcome, EpisodeOutcome::kRemediated);
  EXPECT_EQ(manager.active_poisons(), 0u);
  EXPECT_EQ(manager.open_episodes(), 0u);
}

TEST_F(FleetEpisodeTest, BudgetExhaustionDefersThenResumesEpisode) {
  const AsId origin = pick_origin();
  announce_world(origin);
  workload::ScenarioGenerator gen(world_, 41);
  auto scenario = find_poisonable(gen, origin);
  ASSERT_TRUE(scenario.has_value()) << "no poisonable scenario found";
  gen.repair(*scenario);

  // One announcement per simulated hour and a pre-drained bucket: the
  // remediation must wait for the refill, deferring the episode meanwhile.
  AnnouncementBudget announce(1.0 / 3600.0, 1.0);
  ASSERT_TRUE(announce.bucket().try_spend(world_.scheduler().now(), 1.0));
  ProbeAdmission admission(10.0, 600.0);
  EpisodeManager manager(
      world_, origin,
      {MonitoredTarget{scenario->target, scenario->target_as, 1.0}}, announce,
      admission);
  manager.set_helpers(helpers_);
  manager.start(world_.scheduler().now() + 3.0 * 3600.0);
  world_.advance(1300.0);

  inject(*scenario, origin);
  // Long enough for detection + isolation + the age gate, but well short of
  // the bucket refill: the episode must be deferred, not remediated.
  world_.advance(1200.0);
  ASSERT_EQ(manager.episodes().size(), 1u);
  EXPECT_EQ(manager.episodes().front().outcome, EpisodeOutcome::kOpen);
  EXPECT_GT(manager.episodes().front().budget_deferrals, 0);
  EXPECT_LT(manager.episodes().front().remediated_at, 0.0);
  EXPECT_EQ(manager.active_poisons(), 0u);
  EXPECT_GT(announce.bucket().denied(), 0u);

  // Once a token accrues the deferred episode resumes and remediates.
  world_.advance(3600.0);
  {
    const auto& rec = manager.episodes().front();
    EXPECT_EQ(rec.action, RepairAction::kPoison);
    EXPECT_GT(rec.remediated_at, 0.0);
  }
  EXPECT_EQ(manager.active_poisons(), 1u);

  gen.repair(*scenario);
  world_.advance(400.0);
  EXPECT_EQ(manager.episodes().front().outcome, EpisodeOutcome::kRemediated);
  EXPECT_EQ(manager.active_poisons(), 0u);
}

TEST_F(FleetEpisodeTest, VerifyFailsBackToIsolateWhenRepairPathDeadToo) {
  const AsId origin = pick_origin();
  announce_world(origin);
  workload::ScenarioGenerator gen(world_, 41);
  auto scenario = find_poisonable(gen, origin);
  ASSERT_TRUE(scenario.has_value()) << "no poisonable scenario found";
  gen.repair(*scenario);

  AnnouncementBudget announce(60.0 / 3600.0, 16.0);
  ProbeAdmission admission(10.0, 600.0);
  EpisodeManager manager(
      world_, origin,
      {MonitoredTarget{scenario->target, scenario->target_as, 1.0}}, announce,
      admission);
  manager.set_helpers(helpers_);
  manager.start(world_.scheduler().now() + 3.0 * 3600.0);
  world_.advance(1300.0);

  inject(*scenario, origin);
  world_.advance(1500.0);
  ASSERT_EQ(manager.episodes().size(), 1u);
  ASSERT_EQ(manager.episodes().front().action, RepairAction::kPoison);
  ASSERT_EQ(manager.active_poisons(), 1u);

  // A second failure appears *behind* the first: every provider of the
  // origin now drops reverse traffic, so the remediated path is dead too
  // and VERIFY can never see the target. After kVerifyFailThreshold
  // consecutive dead rounds the episode must fall back to ISOLATE and drop
  // its (useless) poison.
  std::vector<dp::FailureId> walls;
  for (const AsId provider : world_.graph().providers(origin)) {
    walls.push_back(world_.failures().inject(
        dp::Failure{.at_as = provider, .toward_as = origin}));
  }
  world_.advance(1000.0);  // >= kVerifyFailThreshold * kSentinelRoundSeconds
  // The failback reverted the mistaken poison and re-isolated; by sampling
  // time the re-isolation may already have remediated a *new* blame, so the
  // poison count is not asserted here — only that the fallback happened.
  EXPECT_GE(manager.episodes().front().reisolations, 1);

  // Clear everything; whatever state the episode is in, it must settle
  // cleanly once the network heals.
  for (const auto id : walls) world_.failures().clear(id);
  gen.repair(*scenario);
  world_.advance(2000.0);
  EXPECT_EQ(manager.open_episodes(), 0u);
  EXPECT_NE(manager.episodes().front().outcome, EpisodeOutcome::kOpen);
  EXPECT_EQ(manager.active_poisons(), 0u);
}

// A detection still waiting on probe admission when the monitoring horizon
// ends gets its own continuation: it keeps retrying admission, closes
// resolved-self once the target answers, and is declined when admission can
// never refill, so no episode outlives the run.
TEST_F(FleetEpisodeTest, HorizonCutDetectionSettlesWhenTargetRecovers) {
  const AsId origin = pick_origin();
  announce_world(origin);
  workload::ScenarioGenerator gen(world_, 41);
  auto scenario = find_poisonable(gen, origin);
  ASSERT_TRUE(scenario.has_value()) << "no poisonable scenario found";
  gen.repair(*scenario);

  // A drained probe bucket that refills to one isolation only long after
  // the horizon.
  AnnouncementBudget announce(60.0 / 3600.0, 16.0);
  ProbeAdmission admission(0.1, 300.0);
  ASSERT_TRUE(admission.try_admit(world_.scheduler().now()));
  EpisodeManager manager(
      world_, origin,
      {MonitoredTarget{scenario->target, scenario->target_as, 1.0}}, announce,
      admission);
  manager.set_helpers(helpers_);
  const double stop_at = world_.scheduler().now() + 1800.0;
  manager.start(stop_at);
  world_.advance(1300.0);

  inject(*scenario, origin);
  world_.advance(stop_at + 10.0 - world_.scheduler().now());
  ASSERT_EQ(manager.episodes().size(), 1u);
  EXPECT_EQ(manager.episodes().front().outcome, EpisodeOutcome::kOpen);
  EXPECT_GT(manager.episodes().front().probe_deferrals, 0);

  gen.repair(*scenario);
  world_.advance(600.0);
  EXPECT_EQ(manager.open_episodes(), 0u);
  EXPECT_EQ(manager.episodes().front().outcome, EpisodeOutcome::kResolvedSelf);
}

TEST_F(FleetEpisodeTest, HorizonCutDetectionDeclinedWhenAdmissionNeverRefills) {
  const AsId origin = pick_origin();
  announce_world(origin);
  workload::ScenarioGenerator gen(world_, 41);
  auto scenario = find_poisonable(gen, origin);
  ASSERT_TRUE(scenario.has_value()) << "no poisonable scenario found";
  gen.repair(*scenario);

  // Burst-only admission, drained below one isolation's estimate.
  AnnouncementBudget announce(60.0 / 3600.0, 16.0);
  ProbeAdmission admission(0.0, 300.0);
  ASSERT_TRUE(admission.try_admit(world_.scheduler().now()));
  EpisodeManager manager(
      world_, origin,
      {MonitoredTarget{scenario->target, scenario->target_as, 1.0}}, announce,
      admission);
  manager.set_helpers(helpers_);
  const double stop_at = world_.scheduler().now() + 1800.0;
  manager.start(stop_at);
  world_.advance(1300.0);

  inject(*scenario, origin);
  world_.advance(stop_at + 600.0 - world_.scheduler().now());
  ASSERT_EQ(manager.episodes().size(), 1u);
  EXPECT_EQ(manager.open_episodes(), 0u);
  EXPECT_EQ(manager.episodes().front().outcome, EpisodeOutcome::kDeclined);
  EXPECT_TRUE(world_.scheduler().empty()) << "the continuation must end";
  gen.repair(*scenario);
}

// --------------------------------------------------------- fleet scheduler

fleet::FleetConfig small_fleet_config() {
  fleet::FleetConfig cfg;
  cfg.targets = 48;
  cfg.shards = 4;
  cfg.base_seed = 0x746573;
  cfg.horizon_seconds = 3600.0;
  cfg.outages_per_hour = 48.0;
  cfg.shard_topology.num_tier1 = 3;
  cfg.shard_topology.num_large_transit = 6;
  cfg.shard_topology.num_small_transit = 12;
  cfg.shard_topology.num_stubs = 40;
  return cfg;
}

TEST(FleetSchedulerTest, FingerprintIdenticalAcrossThreadCounts) {
  auto cfg = small_fleet_config();
  cfg.threads = 1;
  const auto serial = fleet::FleetScheduler(cfg).run();
  cfg.threads = 4;
  const auto parallel = fleet::FleetScheduler(cfg).run();

  EXPECT_GT(serial.episodes_opened(), 0u) << "sweep injected no episodes";
  EXPECT_EQ(serial.fingerprint(), parallel.fingerprint());
  EXPECT_EQ(serial.episodes_opened(), parallel.episodes_opened());
  EXPECT_EQ(serial.outages_injected(), parallel.outages_injected());
}

// Golden FNV-1a digest of the small config's fingerprint: every episode
// record of every shard (outcome, blame, flap generation, deferrals,
// re-isolations and five timestamps). A change to when or how the fleet
// opens, remediates or closes an episode moves it.
constexpr std::uint64_t kSmallFleetDigest = 0xa9e6337adc447d3bULL;

TEST(FleetSchedulerTest, SmallConfigFingerprintIsPinned) {
  const auto result = fleet::FleetScheduler(small_fleet_config()).run();
  EXPECT_EQ(util::fnv1a(result.fingerprint()), kSmallFleetDigest)
      << result.fingerprint();
}

TEST(FleetSchedulerTest, RunSettlesAndRespectsAnnouncementBudget) {
  const auto result = fleet::FleetScheduler(small_fleet_config()).run();
  EXPECT_TRUE(result.budget_respected());
  for (const auto& shard : result.shards) {
    EXPECT_EQ(shard.open_at_end, 0u) << "shard " << shard.shard;
    EXPECT_EQ(shard.poisons_at_end, 0u) << "shard " << shard.shard;
    EXPECT_LE(shard.announce_spent, shard.announce_capacity + 1e-6)
        << "shard " << shard.shard;
  }
  EXPECT_EQ(result.episodes_closed(), result.episodes_opened());
}

// ------------------------------------------------------------------- fuzz

TEST(FleetFuzzTest, CleanSweepLeavesEngineInvariantClean) {
  const auto sweep = fleet::run_fleet_sweep(1, 4, 0.0);
  EXPECT_TRUE(sweep.ok()) << sweep.failing_seeds.size() << " failing seeds";
  EXPECT_EQ(sweep.runs, 4u);
}

TEST(FleetFuzzTest, ScenarioIsDeterministicPerSeed) {
  fleet::FleetScenarioOptions opt;
  opt.seed = 11;
  const auto a = fleet::run_fleet_scenario(opt);
  const auto b = fleet::run_fleet_scenario(opt);
  EXPECT_TRUE(a.ok()) << a.summary();
  EXPECT_EQ(a.episodes, b.episodes);
  EXPECT_EQ(a.outages, b.outages);
  EXPECT_EQ(a.targets, b.targets);
}

TEST(FleetFuzzTest, ReplaysSeedFromEnvironment) {
  const auto seed = check::replay_seed_from_env();
  if (!seed.has_value()) {
    GTEST_SKIP() << "LG_CHECK_SEED not set";
  }
  fleet::FleetScenarioOptions opt;
  opt.seed = *seed;
  const auto clean = fleet::run_fleet_scenario(opt);
  EXPECT_TRUE(clean.ok()) << clean.summary();
  opt.fault_intensity = 0.3;
  const auto faulty = fleet::run_fleet_scenario(opt);
  EXPECT_TRUE(faulty.ok()) << faulty.summary();
}

// ------------------------------------------------------------- env knobs

TEST(ServiceConfigTest, FromEnvValidatesServiceKnobs) {
  ::setenv("LG_SERVICE_PREFIXES", "5000", 1);
  ::setenv("LG_SERVICE_OUTAGE_RATE", "96", 1);
  const auto cfg = fleet::ServiceConfig::from_env();
  ::unsetenv("LG_SERVICE_PREFIXES");
  ::unsetenv("LG_SERVICE_OUTAGE_RATE");
  EXPECT_EQ(cfg.prefixes, 5000u);
  EXPECT_DOUBLE_EQ(cfg.outages_per_hour, 96.0);

  const auto expect_throw = [](const char* name, const char* value) {
    ::setenv(name, value, 1);
    try {
      (void)fleet::ServiceConfig::from_env();
      ::unsetenv(name);
      FAIL() << name << "=" << value << " must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << "diagnostic must name the knob: " << e.what();
    }
    ::unsetenv(name);
  };
  expect_throw("LG_SERVICE_PREFIXES", "many");
  expect_throw("LG_SERVICE_PREFIXES", "0");
  expect_throw("LG_SERVICE_CLIENTS", "-3");
  expect_throw("LG_SERVICE_HORIZON", "0.5");  // must be >= 1 s
  expect_throw("LG_SERVICE_OUTAGE_RATE", "-1");
  expect_throw("LG_SERVICE_ANNOUNCE_BUDGET", "none");
}

// --------------------------------------------------- budget regressions

// Regression: a run of trivially cheap isolations used to walk the EWMA
// cost estimate toward zero, making admission free — the next real
// isolation then stampeded the probe budget with no reservation backing
// it. The estimate must floor at a fraction of the initial (paper-prior)
// estimate.
TEST(ProbeAdmissionTest, EstimateNeverCollapsesBelowFloor) {
  ProbeAdmission adm(0.0, 1e9);
  EXPECT_DOUBLE_EQ(adm.cost_floor(), 70.0);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(adm.try_admit(0.0));
    adm.settle(0.0, 1.0);  // near-free isolation, 100 times in a row
  }
  EXPECT_GE(adm.cost_estimate(), adm.cost_floor())
      << "EWMA collapsed below the admission floor";
  // The floor is a *floor*, not a pin: expensive isolations still raise it.
  ASSERT_TRUE(adm.try_admit(0.0));
  adm.settle(0.0, 1000.0);
  EXPECT_GT(adm.cost_estimate(), adm.cost_floor());
}

// Regression: utilization(horizon) used to divide lifetime spend by the
// capacity of the *nominal* horizon; a drain phase running past that
// horizon kept spending and the report read > 1.0. Utilization must stay
// in [0, 1] whenever the caller's horizon undershoots elapsed time.
TEST(AnnouncementBudgetTest, UtilizationStaysInBoundsPastHorizon) {
  AnnouncementBudget budget(1.0 / 60.0, 4.0);  // one per minute, burst 4
  double now = 0.0;
  // Spend continuously for two hours against a "one hour" nominal horizon.
  for (int i = 0; i < 7200; ++i) {
    now = static_cast<double>(i);
    (void)budget.try_announce(now);
  }
  const double u = budget.utilization(3600.0);
  EXPECT_GE(u, 0.0);
  EXPECT_LE(u, 1.0) << "utilization must clamp when horizon < elapsed";
  EXPECT_GT(u, 0.9) << "a saturated bucket should read near 1.0";
  // With an honest horizon the value is unchanged semantics: still [0, 1].
  const double u2 = budget.utilization(now);
  EXPECT_GE(u2, 0.0);
  EXPECT_LE(u2, 1.0);
}

// Regression: a zero cadence re-schedules its round at the same instant
// forever, so run_fleet_shard with ping_interval = 0 never returned.
TEST(EpisodeConfigTest, ManagerRejectsZeroPeriods) {
  using Field = double fleet::EpisodeConfig::*;
  const std::pair<Field, const char*> fields[] = {
      {&fleet::EpisodeConfig::ping_interval, "EpisodeConfig::ping_interval"},
      {&fleet::EpisodeConfig::defer_retry_seconds,
       "EpisodeConfig::defer_retry_seconds"},
  };
  for (const auto& [field, name] : fields) {
    fleet::FleetConfig cfg = small_fleet_config();
    cfg.episode.*field = 0.0;
    try {
      (void)fleet::run_fleet_shard(cfg, 0, 7);
      ADD_FAILURE() << name << " = 0 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace lg
