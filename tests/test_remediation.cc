// Remediator announcement crafting, sentinel monitor semantics, and the
// forward-failure (egress-shift) repair path through the orchestrator.
#include <gtest/gtest.h>

#include "core/lifeguard.h"
#include "core/remediation.h"
#include "core/sentinel.h"
#include "topology/generator.h"
#include "workload/scenarios.h"
#include "workload/sim_world.h"

namespace lg {
namespace {

using topo::AsId;

class RemediatorTest : public ::testing::Test {
 protected:
  RemediatorTest()
      : topo_(topo::make_fig2_topology()),
        engine_(topo_.graph, sched_),
        remediator_(engine_, topo_.o) {}

  topo::Fig2Topology topo_;
  util::Scheduler sched_;
  bgp::BgpEngine engine_;
  core::Remediator remediator_;
};

TEST_F(RemediatorTest, BaselineAnnouncesPrependedPathOnBothPrefixes) {
  remediator_.announce_baseline();
  const auto* prod =
      engine_.speaker(topo_.o).origin_policy(remediator_.production_prefix());
  ASSERT_NE(prod, nullptr);
  EXPECT_EQ(prod->default_path, bgp::baseline_path(topo_.o, 3));
  const auto* sentinel =
      engine_.speaker(topo_.o).origin_policy(remediator_.sentinel_prefix());
  ASSERT_NE(sentinel, nullptr);
  EXPECT_EQ(sentinel->default_path, bgp::baseline_path(topo_.o, 3));
  EXPECT_FALSE(remediator_.is_poisoned());
}

TEST_F(RemediatorTest, PoisonKeepsAnnouncementLength) {
  remediator_.announce_baseline();
  remediator_.poison(topo_.a);
  const auto* policy =
      engine_.speaker(topo_.o).origin_policy(remediator_.production_prefix());
  ASSERT_NE(policy, nullptr);
  ASSERT_TRUE(policy->default_path.has_value());
  EXPECT_EQ(policy->default_path->size(), 3u);
  EXPECT_EQ(*policy->default_path, (bgp::AsPath{topo_.o, topo_.a, topo_.o}));
  EXPECT_EQ(remediator_.current_poison(), topo_.a);
}

TEST_F(RemediatorTest, LongerPoisonChainsExtendLength) {
  remediator_.announce_baseline();
  remediator_.poison_path({topo_.a, topo_.a, topo_.c});
  const auto* policy =
      engine_.speaker(topo_.o).origin_policy(remediator_.production_prefix());
  ASSERT_TRUE(policy->default_path.has_value());
  // 3 poisons need at least 5 elements (origin on both ends).
  EXPECT_EQ(policy->default_path->size(), 5u);
  EXPECT_EQ(policy->default_path->back(), topo_.o);
  EXPECT_EQ(policy->default_path->front(), topo_.o);
}

TEST_F(RemediatorTest, SelectivePoisonOverridesOnlyNamedProviders) {
  remediator_.announce_baseline();
  const AsId via[] = {topo_.b};
  remediator_.selective_poison(topo_.a, via);
  const auto* policy =
      engine_.speaker(topo_.o).origin_policy(remediator_.production_prefix());
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(*policy->path_for(topo_.b),
            (bgp::AsPath{topo_.o, topo_.a, topo_.o}));
  // Any other neighbor gets the baseline.
  EXPECT_EQ(*policy->path_for(9999), bgp::baseline_path(topo_.o, 3));
}

TEST_F(RemediatorTest, WithdrawAllRemovesBothPrefixes) {
  remediator_.announce_baseline();
  sched_.run();
  ASSERT_NE(engine_.best_route(topo_.b, remediator_.production_prefix()),
            nullptr);
  remediator_.withdraw_all();
  sched_.run();
  EXPECT_EQ(engine_.best_route(topo_.b, remediator_.production_prefix()),
            nullptr);
  EXPECT_EQ(engine_.best_route(topo_.b, remediator_.sentinel_prefix()),
            nullptr);
}

TEST_F(RemediatorTest, ConfigurablePrependDepth) {
  core::Remediator deep(engine_, topo_.o,
                        core::RemediatorConfig{.baseline_prepend = 5});
  deep.announce_baseline();
  const auto* policy =
      engine_.speaker(topo_.o).origin_policy(deep.production_prefix());
  EXPECT_EQ(policy->default_path->size(), 5u);
  deep.poison(topo_.a);
  const auto* poisoned =
      engine_.speaker(topo_.o).origin_policy(deep.production_prefix());
  // Poison pads with leading origin copies to preserve the length.
  EXPECT_EQ(poisoned->default_path->size(), 5u);
}

// ---- Sentinel monitor ----

class SentinelTest : public ::testing::Test {
 protected:
  SentinelTest()
      : topo_(topo::make_fig2_topology()),
        engine_(topo_.graph, sched_),
        net_(topo_.graph),
        dataplane_(engine_, net_, failures_),
        resp_(measure::ResponsivenessConfig{.never_respond_frac = 0.0}),
        prober_(dataplane_, resp_),
        remediator_(engine_, topo_.o) {
    for (const AsId as : topo_.graph.as_ids()) {
      bgp::OriginPolicy infra;
      infra.default_path = bgp::AsPath{as};
      engine_.originate(as, topo::AddressPlan::infrastructure_prefix(as),
                        infra);
      bgp::OriginPolicy prod;
      prod.default_path = bgp::AsPath{as};
      engine_.originate(as, topo::AddressPlan::production_prefix(as), prod);
    }
    remediator_.announce_baseline();
    sched_.run();
  }

  topo::Fig2Topology topo_;
  util::Scheduler sched_;
  bgp::BgpEngine engine_;
  dp::RouterNet net_;
  dp::FailureInjector failures_;
  dp::DataPlane dataplane_;
  measure::Responsiveness resp_;
  measure::Prober prober_;
  core::Remediator remediator_;
};

TEST_F(SentinelTest, DetectsRepairThroughSentinelSourcedProbes) {
  core::SentinelMonitor sentinel(prober_, topo_.o);
  const auto target = topo::AddressPlan::production_host(topo_.e);

  // Healthy path: the sentinel-sourced probe succeeds.
  EXPECT_TRUE(sentinel.original_path_repaired(target));

  // A silently drops traffic toward O; poison A so production reroutes.
  const auto failure_id =
      failures_.inject(dp::Failure{.at_as = topo_.a, .toward_as = topo_.o});
  remediator_.poison(topo_.a);
  sched_.run();

  // Production path works (E reroutes via D), but the sentinel probe —
  // whose reply follows the unpoisoned /23 through A — still fails.
  EXPECT_TRUE(prober_
                  .ping(topo_.o, target,
                        topo::AddressPlan::production_host(topo_.o))
                  .replied);
  EXPECT_FALSE(sentinel.original_path_repaired(target));

  // Underlying repair flips the sentinel check.
  failures_.clear(failure_id);
  EXPECT_TRUE(sentinel.original_path_repaired(target));
}

TEST_F(SentinelTest, ProbeSourceLivesInUnusedSentinelSpace) {
  core::SentinelMonitor sentinel(prober_, topo_.o);
  EXPECT_TRUE(topo::AddressPlan::sentinel_unused_subprefix(topo_.o)
                  .contains(sentinel.probe_source()));
}

TEST_F(SentinelTest, PoisonedAsReachabilityFallback) {
  core::SentinelMonitor sentinel(prober_, topo_.o);
  remediator_.poison(topo_.a);
  sched_.run();
  // No injected failure: A can reach us via the sentinel, so the fallback
  // check (ping a router inside the poisoned AS) reports reachability.
  EXPECT_TRUE(sentinel.poisoned_as_reaches_us(topo_.a));
  // With A's paths toward O actually broken, it cannot.
  const auto id =
      failures_.inject(dp::Failure{.at_as = topo_.a, .toward_as = topo_.o});
  EXPECT_FALSE(sentinel.poisoned_as_reaches_us(topo_.a));
  failures_.clear(id);
}

// ---- Forward-failure egress shift through the orchestrator ----

TEST(LifeguardForwardTest, ForwardFailureRepairsViaEgressShift) {
  workload::SimWorld world(workload::SimWorld::small_config(83));
  AsId origin = world.topology().first_multihomed_stub();
  core::LifeguardConfig cfg;
  cfg.decision.min_elapsed_seconds = 300.0;
  core::Lifeguard guard(world.scheduler(), world.engine(), world.prober(),
                        origin, cfg);
  std::vector<measure::VantagePoint> helpers;
  std::vector<AsId> helper_ases;
  for (const AsId as : world.stub_vantage_ases(6)) {
    if (as == origin) continue;
    world.announce_production(as);
    helpers.push_back(measure::VantagePoint::in_as(as));
    helper_ases.push_back(as);
  }
  guard.set_helpers(helpers);
  guard.start();
  world.advance(700.0);

  // A forward failure whose culprit leaves an alternate egress: the culprit
  // must be avoidable from some *other* provider of the origin.
  workload::ScenarioGenerator gen(world, 85);
  std::optional<workload::FailureScenario> scenario;
  for (const AsId target_as : world.topology().stubs) {
    if (target_as == origin) continue;
    auto s = gen.make(origin, target_as, core::FailureDirection::kForward,
                      false, helper_ases);
    if (!s) continue;
    bool alternate_egress = false;
    const topo::ValleyFreeOracle oracle(world.graph());
    for (const AsId p : world.graph().providers(origin)) {
      if (p != s->culprit_as &&
          oracle.reachable(p, target_as,
                           topo::Avoidance::of_as(s->culprit_as))) {
        alternate_egress = true;
        break;
      }
    }
    if (!alternate_egress) {
      gen.repair(*s);
      continue;
    }
    scenario = std::move(s);
    break;
  }
  if (!scenario) GTEST_SKIP() << "no forward scenario with alternate egress";
  gen.repair(*scenario);
  guard.add_target(scenario->target);
  world.advance(1300.0);

  scenario->failure_ids.push_back(world.failures().inject(dp::Failure{
      .at_as = scenario->culprit_as, .toward_as = scenario->target_as}));
  world.advance(1500.0);

  ASSERT_FALSE(guard.episodes().empty());
  const auto& record = guard.episodes().front();
  EXPECT_EQ(record.isolation.direction, core::FailureDirection::kForward);
  EXPECT_EQ(record.action, core::RepairAction::kEgressShift);
  EXPECT_TRUE(world.engine().speaker(origin).forced_egress().has_value());
  // Connectivity restored through the alternate provider.
  const auto vp = guard.vantage();
  EXPECT_TRUE(world.prober().ping(vp.as, scenario->target, vp.addr).replied);

  // Repair the underlying failure: the forced egress is dropped.
  gen.repair(*scenario);
  world.advance(400.0);
  EXPECT_FALSE(world.engine().speaker(origin).forced_egress().has_value());
  EXPECT_GT(guard.episodes().front().closed_at, 0.0);
}

}  // namespace
}  // namespace lg
