// Orchestrator state-machine edge cases: declined verdicts, concurrent
// outages with one remediation slot, and re-detection after standing down.
#include <gtest/gtest.h>

#include "core/lifeguard.h"
#include "workload/scenarios.h"
#include "workload/sim_world.h"

namespace lg {
namespace {

using topo::AsId;

class LifeguardEdgeTest : public ::testing::Test {
 protected:
  LifeguardEdgeTest() : world_(workload::SimWorld::small_config(91)) {
    origin_ = world_.topology().first_multihomed_stub();
  }

  std::vector<measure::VantagePoint> make_helpers() {
    std::vector<measure::VantagePoint> helpers;
    for (const AsId as : world_.stub_vantage_ases(6)) {
      if (as == origin_) continue;
      world_.announce_production(as);
      helpers.push_back(measure::VantagePoint::in_as(as));
      helper_ases_.push_back(as);
    }
    return helpers;
  }

  workload::SimWorld world_;
  AsId origin_ = topo::kInvalidAs;
  std::vector<AsId> helper_ases_;
};

TEST_F(LifeguardEdgeTest, DeclinesWhenNoAlternateExists) {
  core::LifeguardConfig cfg;
  cfg.decision.min_elapsed_seconds = 300.0;
  core::Lifeguard guard(world_.scheduler(), world_.engine(), world_.prober(),
                        origin_, cfg);
  guard.set_helpers(make_helpers());
  guard.start();
  world_.advance(700.0);

  // Find a scenario whose culprit the decider must refuse (no alternate
  // from the target's side).
  workload::ScenarioGenerator gen(world_, 93);
  core::PoisonDecider decider(world_.graph());
  std::optional<workload::FailureScenario> scenario;
  for (const AsId target_as : world_.topology().stubs) {
    if (target_as == origin_) continue;
    auto s = gen.make(origin_, target_as, core::FailureDirection::kReverse,
                      false, helper_ases_);
    if (!s) continue;
    const AsId sources[] = {target_as};
    // The orchestrator may act at link granularity when isolation pins a
    // link, so the scenario must be undecidable at *both* granularities:
    // no alternate around the culprit AS, and none around any of its links.
    bool any_granularity_poisonable =
        decider.decide(origin_, s->culprit_as, 1000.0, sources).poison;
    for (const auto& n : world_.graph().neighbors(s->culprit_as)) {
      if (any_granularity_poisonable) break;
      any_granularity_poisonable =
          decider
              .decide(origin_, s->culprit_as, 1000.0, sources,
                      topo::AsLinkKey(s->culprit_as, n.id))
              .poison;
    }
    if (any_granularity_poisonable) {
      gen.repair(*s);
      continue;
    }
    scenario = std::move(s);
    break;
  }
  if (!scenario) GTEST_SKIP() << "every scenario was poisonable";
  gen.repair(*scenario);
  guard.add_target(scenario->target);
  world_.advance(1300.0);
  scenario->failure_ids.push_back(world_.failures().inject(dp::Failure{
      .at_as = scenario->culprit_as, .toward_as = origin_}));
  world_.advance(1500.0);

  ASSERT_FALSE(guard.episodes().empty());
  const auto& record = guard.episodes().front();
  // Isolation ran, but no remediation was applied.
  EXPECT_EQ(record.action, core::RepairAction::kNone);
  EXPECT_FALSE(guard.remediator().is_poisoned());
  EXPECT_FALSE(record.note.empty());
  gen.repair(*scenario);
}

TEST_F(LifeguardEdgeTest, SecondOutageStandsDownWhileRemediating) {
  core::LifeguardConfig cfg;
  cfg.decision.min_elapsed_seconds = 300.0;
  core::Lifeguard guard(world_.scheduler(), world_.engine(), world_.prober(),
                        origin_, cfg);
  guard.set_helpers(make_helpers());
  guard.start();
  world_.advance(700.0);

  // Two poisonable scenarios against different targets.
  workload::ScenarioGenerator gen(world_, 95);
  core::PoisonDecider decider(world_.graph());
  std::vector<workload::FailureScenario> scenarios;
  for (const AsId target_as : world_.topology().stubs) {
    if (scenarios.size() >= 2) break;
    if (target_as == origin_) continue;
    auto s = gen.make(origin_, target_as, core::FailureDirection::kReverse,
                      false, helper_ases_);
    if (!s) continue;
    const AsId sources[] = {target_as};
    if (!decider.decide(origin_, s->culprit_as, 1000.0, sources).poison ||
        (!scenarios.empty() &&
         scenarios.front().culprit_as == s->culprit_as)) {
      gen.repair(*s);
      continue;
    }
    gen.repair(*s);
    scenarios.push_back(std::move(*s));
  }
  if (scenarios.size() < 2) GTEST_SKIP() << "need two distinct scenarios";

  guard.add_target(scenarios[0].target);
  guard.add_target(scenarios[1].target);
  world_.advance(1300.0);

  // Inject both failures simultaneously.
  for (auto& s : scenarios) {
    s.failure_ids.push_back(world_.failures().inject(
        dp::Failure{.at_as = s.culprit_as, .toward_as = origin_}));
  }
  world_.advance(1500.0);

  // One remediation in flight; the other outage stood down.
  ASSERT_GE(guard.episodes().size(), 2u);
  std::size_t applied = 0;
  std::size_t stood_down = 0;
  for (const auto& record : guard.episodes()) {
    if (record.action != core::RepairAction::kNone) ++applied;
    if (record.note.find("in flight") != std::string::npos) ++stood_down;
  }
  EXPECT_EQ(applied, 1u);
  EXPECT_GE(stood_down, 1u);

  for (auto& s : scenarios) gen.repair(s);
  world_.advance(600.0);
}

TEST_F(LifeguardEdgeTest, OutageDuringIsolationThatHealsIsClosedCleanly) {
  core::LifeguardConfig cfg;
  cfg.decision.min_elapsed_seconds = 600.0;
  core::Lifeguard guard(world_.scheduler(), world_.engine(), world_.prober(),
                        origin_, cfg);
  guard.set_helpers(make_helpers());
  guard.start();
  world_.advance(700.0);

  workload::ScenarioGenerator gen(world_, 97);
  std::optional<workload::FailureScenario> scenario;
  for (const AsId target_as : world_.topology().stubs) {
    if (target_as == origin_) continue;
    if (auto s = gen.make(origin_, target_as,
                          core::FailureDirection::kReverse, false,
                          helper_ases_)) {
      scenario = std::move(s);
      break;
    }
  }
  ASSERT_TRUE(scenario.has_value());
  gen.repair(*scenario);
  guard.add_target(scenario->target);
  world_.advance(1300.0);

  scenario->failure_ids.push_back(world_.failures().inject(dp::Failure{
      .at_as = scenario->culprit_as, .toward_as = origin_}));
  // Let detection+isolation fire, then heal before the decision gate.
  world_.advance(250.0);
  gen.repair(*scenario);
  world_.advance(900.0);

  ASSERT_FALSE(guard.episodes().empty());
  const auto& record = guard.episodes().front();
  EXPECT_EQ(record.outcome, core::EpisodeOutcome::kResolvedSelf);
  EXPECT_FALSE(guard.remediator().is_poisoned());
  // Monitoring resumed: no further records without new failures.
  const auto records_now = guard.episodes().size();
  world_.advance(1200.0);
  EXPECT_EQ(guard.episodes().size(), records_now);
}

}  // namespace
}  // namespace lg
