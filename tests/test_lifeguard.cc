// End-to-end orchestrator integration: detect -> isolate -> wait out the
// transient window -> poison -> sentinel detects repair -> unpoison. This is
// the paper's §6 case study in miniature.
#include <gtest/gtest.h>

#include "core/lifeguard.h"
#include "workload/scenarios.h"
#include "workload/sim_world.h"

namespace lg {
namespace {

using core::FailureDirection;
using core::Lifeguard;
using core::LifeguardConfig;
using core::RepairAction;
using topo::AsId;

class LifeguardTest : public ::testing::Test {
 protected:
  LifeguardTest() : world_(workload::SimWorld::small_config(31)) {}

  // Pick an origin stub with >= 2 providers so poisoning is permissible.
  AsId pick_origin() {
    const AsId as = world_.topology().first_multihomed_stub();
    if (as == topo::kInvalidAs) {
      ADD_FAILURE() << "no multihomed stub in topology";
    }
    return as;
  }

  workload::SimWorld world_;
};

TEST_F(LifeguardTest, FullReverseFailureRepairCycle) {
  const AsId origin = pick_origin();
  LifeguardConfig cfg;
  cfg.decision.min_elapsed_seconds = 300.0;
  Lifeguard guard(world_.scheduler(), world_.engine(), world_.prober(),
                  origin, cfg);

  // Helper vantage points for spoofed probing.
  std::vector<measure::VantagePoint> helpers;
  for (const AsId as : world_.stub_vantage_ases(5)) {
    if (as == origin) continue;
    world_.announce_production(as);
    helpers.push_back(measure::VantagePoint::in_as(as));
  }
  guard.set_helpers(helpers);
  guard.start();
  world_.advance(700.0);  // baseline converged, one atlas round done

  // Find a viable reverse-failure scenario against some monitored target.
  workload::ScenarioGenerator gen(world_, 41);
  std::optional<workload::FailureScenario> scenario;
  for (const AsId target_as : world_.topology().stubs) {
    if (target_as == origin) continue;
    std::vector<AsId> witness_ases;
    for (const auto& h : helpers) witness_ases.push_back(h.as);
    auto s = gen.make(origin, target_as, FailureDirection::kReverse, false, witness_ases);
    if (!s) continue;
    // The decider must be willing: alternate must exist and culprit must
    // not be the sole provider.
    core::PoisonDecider decider(world_.graph());
    const AsId sources[] = {target_as};
    if (!decider.decide(origin, s->culprit_as, 1000.0, sources).poison) {
      gen.repair(*s);
      continue;
    }
    scenario = std::move(s);
    break;
  }
  ASSERT_TRUE(scenario.has_value()) << "no poisonable scenario found";
  // The scenario injected its failure mid-setup; pull it out, register the
  // target, warm the atlas, then re-inject to start the outage clock.
  gen.repair(*scenario);
  guard.add_target(scenario->target);
  world_.advance(1300.0);  // a monitoring + atlas round with healthy paths

  scenario->failure_ids.push_back(world_.failures().inject(dp::Failure{
      .at_as = scenario->culprit_as, .toward_as = origin}));
  world_.advance(1500.0);

  ASSERT_EQ(guard.outages().size(), 1u);
  const auto& record = guard.outages().front();
  EXPECT_EQ(record.isolation.direction, FailureDirection::kReverse);
  EXPECT_EQ(record.isolation.blamed_as, scenario->culprit_as);
  EXPECT_EQ(record.action, RepairAction::kPoison);
  EXPECT_GT(record.remediated_at, record.detected_at);
  EXPECT_TRUE(guard.remediator().is_poisoned());
  EXPECT_EQ(guard.remediator().current_poison(), scenario->culprit_as);
  // Repair not yet observed: the underlying failure persists.
  EXPECT_LT(record.repaired_at, 0.0);

  // The poison restores connectivity on the production prefix.
  const auto vp = guard.vantage();
  EXPECT_TRUE(world_.prober()
                  .ping(vp.as, scenario->target, vp.addr)
                  .replied);

  // Operator fixes the underlying problem; sentinel notices, poison lifts.
  gen.repair(*scenario);
  world_.advance(400.0);
  EXPECT_FALSE(guard.remediator().is_poisoned());
  EXPECT_GT(guard.outages().front().repaired_at, 0.0);
  EXPECT_GE(guard.outages().front().reverted_at,
            guard.outages().front().repaired_at);
}

TEST_F(LifeguardTest, TransientOutageResolvesWithoutPoisoning) {
  const AsId origin = pick_origin();
  LifeguardConfig cfg;
  cfg.decision.min_elapsed_seconds = 300.0;
  Lifeguard guard(world_.scheduler(), world_.engine(), world_.prober(),
                  origin, cfg);
  std::vector<measure::VantagePoint> helpers;
  for (const AsId as : world_.stub_vantage_ases(5)) {
    if (as == origin) continue;
    world_.announce_production(as);
    helpers.push_back(measure::VantagePoint::in_as(as));
  }
  guard.set_helpers(helpers);
  guard.start();
  world_.advance(700.0);

  workload::ScenarioGenerator gen(world_, 43);
  std::optional<workload::FailureScenario> scenario;
  for (const AsId target_as : world_.topology().stubs) {
    if (target_as == origin) continue;
    std::vector<AsId> witness_ases;
    for (const auto& h : helpers) witness_ases.push_back(h.as);
    if (auto s = gen.make(origin, target_as, FailureDirection::kReverse, false, witness_ases)) {
      scenario = std::move(s);
      break;
    }
  }
  ASSERT_TRUE(scenario.has_value());
  gen.repair(*scenario);
  guard.add_target(scenario->target);
  world_.advance(1300.0);

  // Outage lasts ~3 minutes: detected, but repaired before the poison gate.
  scenario->failure_ids.push_back(world_.failures().inject(dp::Failure{
      .at_as = scenario->culprit_as, .toward_as = origin}));
  world_.advance(180.0);
  gen.repair(*scenario);
  world_.advance(600.0);

  ASSERT_GE(guard.outages().size(), 1u);
  const auto& record = guard.outages().front();
  EXPECT_TRUE(record.resolved_without_action);
  EXPECT_EQ(record.action, RepairAction::kNone);
  EXPECT_FALSE(guard.remediator().is_poisoned());
}

TEST_F(LifeguardTest, NoFailureMeansNoOutageRecords) {
  const AsId origin = pick_origin();
  Lifeguard guard(world_.scheduler(), world_.engine(), world_.prober(),
                  origin);
  const auto targets = world_.stub_vantage_ases(8);
  for (const AsId as : targets) {
    if (as == origin) continue;
    // Monitor only targets that answer probes — the deployment picks
    // responsive routers, and the responsiveness DB exists for the rest.
    const auto addr =
        topo::AddressPlan::router_address(topo::RouterId{as, 0});
    if (!world_.prober().target_responds(addr)) continue;
    guard.add_target(addr);
  }
  guard.start();
  world_.advance(3600.0);
  EXPECT_TRUE(guard.outages().empty());
  EXPECT_FALSE(guard.remediator().is_poisoned());
  EXPECT_GT(guard.atlas().refreshes(), 0u);
}

}  // namespace
}  // namespace lg
