// End-to-end orchestrator integration: detect -> isolate -> wait out the
// transient window -> poison -> sentinel detects repair -> unpoison. This is
// the paper's §6 case study in miniature.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/adversary_plane.h"
#include "core/lifeguard.h"
#include "faults/fault_plane.h"
#include "obs/metrics.h"
#include "util/hashing.h"
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

  ASSERT_EQ(guard.episodes().size(), 1u);
  const auto& record = guard.episodes().front();
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
  EXPECT_GT(guard.episodes().front().repaired_at, 0.0);
  EXPECT_EQ(guard.episodes().front().outcome,
            core::EpisodeOutcome::kRemediated);
  EXPECT_GE(guard.episodes().front().closed_at,
            guard.episodes().front().repaired_at);
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

  ASSERT_GE(guard.episodes().size(), 1u);
  const auto& record = guard.episodes().front();
  EXPECT_EQ(record.outcome, core::EpisodeOutcome::kResolvedSelf);
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
  EXPECT_TRUE(guard.episodes().empty());
  EXPECT_FALSE(guard.remediator().is_poisoned());
  EXPECT_GT(guard.atlas().refreshes(), 0u);
}

// ------------------------------------------------------ pinned behaviour
//
// Golden FNV-1a digests of every Lifeguard record for three fixed runs: a
// clean reverse-failure repair, a run on a faulty measurement plane whose
// decisions defer, and a run against a fully hostile adversarial plane that
// ends captive. Timestamps, blame, action, escalations, outcome and note
// are all folded in, so any change to when or how Lifeguard detects,
// decides, remediates or gives up moves a digest.

std::string record_digest_text(const std::vector<core::EpisodeRecord>& recs) {
  using O = core::EpisodeOutcome;
  std::string out;
  for (const auto& r : recs) {
    // Lifeguard reverts exactly the episodes it closes remediated or
    // captive, at the close.
    const bool reverted =
        r.outcome == O::kRemediated || r.outcome == O::kCaptive;
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%u as%u t=[%.3f,%.3f,%.3f,%.3f,%.3f,%.3f] blamed%u %s "
                  "esc%d self%d captive%d cp%d ",
                  r.target, r.target_as, r.opened_at, r.detected_at,
                  r.isolated_at, r.remediated_at, r.repaired_at,
                  reverted ? r.closed_at : -1.0,
                  r.isolation.blamed_as.value_or(0),
                  core::repair_action_name(r.action), r.escalations,
                  r.outcome == O::kResolvedSelf ? 1 : 0,
                  r.outcome == O::kCaptive ? 1 : 0,
                  r.control_plane_repaired ? 1 : 0);
    out += buf;
    out += r.note;
    out += "\n";
  }
  return out;
}

struct PinnedRun {
  std::string records;
  std::uint64_t deferred = 0;
  bool captive = false;
};

// One repair trial in the shape of the sec7/sec8 harnesses: a reverse
// failure the decider will poison for, injected after warm-up, repaired by
// its operators after `outage_seconds`.
PinnedRun pinned_trial(std::uint64_t seed, double fault_intensity,
                       double prevalence, double outage_seconds) {
  faults::FaultConfig fcfg = faults::FaultConfig::at_intensity(fault_intensity);
  fcfg.seed = seed ^ 0x666c7453ULL;
  faults::FaultPlane faults(fcfg);
  faults::ScopedFaultPlane fault_scope(faults);
  adversary::AdversaryConfig acfg =
      adversary::AdversaryConfig::at_prevalence(prevalence);
  acfg.seed = seed ^ 0x61647673ULL;
  adversary::AdversaryPlane adversary(acfg);
  adversary::ScopedAdversaryPlane adversary_scope(adversary);
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry metrics_scope(reg);

  workload::SimWorld world(workload::SimWorld::small_config(seed));
  const AsId origin = world.topology().first_multihomed_stub();
  LifeguardConfig cfg;
  cfg.decision.min_elapsed_seconds = 300.0;
  Lifeguard guard(world.scheduler(), world.engine(), world.prober(), origin,
                  cfg);
  std::vector<measure::VantagePoint> helpers;
  std::vector<AsId> helper_ases;
  for (const AsId as : world.stub_vantage_ases(7)) {
    if (as == origin || helpers.size() >= 6) continue;
    world.announce_production(as);
    helpers.push_back(measure::VantagePoint::in_as(as));
    helper_ases.push_back(as);
  }
  guard.set_helpers(helpers);
  guard.start();
  world.advance(700.0);

  workload::ScenarioGenerator gen(world, seed ^ 0x73636eULL);
  std::optional<workload::FailureScenario> scenario;
  for (const AsId target_as : world.topology().stubs) {
    if (target_as == origin) continue;
    auto s = gen.make(origin, target_as, FailureDirection::kReverse, false,
                      helper_ases);
    if (!s) continue;
    core::PoisonDecider decider(world.graph());
    const AsId sources[] = {target_as};
    if (!decider.decide(origin, s->culprit_as, 1000.0, sources).poison) {
      gen.repair(*s);
      continue;
    }
    scenario = std::move(s);
    break;
  }
  PinnedRun run;
  if (!scenario) return run;
  gen.repair(*scenario);
  guard.add_target(scenario->target);
  world.advance(1300.0);
  scenario->failure_ids.push_back(world.failures().inject(
      dp::Failure{.at_as = scenario->culprit_as, .toward_as = origin}));
  world.advance(outage_seconds);
  gen.repair(*scenario);
  world.advance(600.0);

  run.records = record_digest_text(guard.episodes());
  run.deferred = reg.counter("lg.lifeguard.decisions_deferred").value();
  for (const auto& r : guard.episodes()) {
    run.captive |= r.outcome == core::EpisodeOutcome::kCaptive;
  }
  return run;
}

constexpr std::uint64_t kCleanRepairDigest = 0xec53d10f0cb91aaeULL;
constexpr std::uint64_t kDeferredFaultDigest = 0x27f2539e899f80bfULL;
constexpr std::uint64_t kCaptiveAdversaryDigest = 0xfd113058acd03de2ULL;

TEST(LifeguardPinnedTest, CleanReverseRepairIsPinned) {
  const PinnedRun run = pinned_trial(1, 0.0, 0.0, 2400.0);
  ASSERT_FALSE(run.records.empty());
  EXPECT_EQ(util::fnv1a(run.records), kCleanRepairDigest) << run.records;
}

TEST(LifeguardPinnedTest, DeferredDecisionsUnderFaultsArePinned) {
  const PinnedRun run = pinned_trial(6, 0.5, 0.0, 2400.0);
  ASSERT_GT(run.deferred, 0u) << "the faulty plane never deferred a decision";
  EXPECT_EQ(util::fnv1a(run.records), kDeferredFaultDigest) << run.records;
}

TEST(LifeguardPinnedTest, CaptiveUnderFullAdversaryIsPinned) {
  const PinnedRun run = pinned_trial(12, 0.0, 1.0, 3000.0);
  ASSERT_TRUE(run.captive) << "the hostile plane let the repair through";
  EXPECT_EQ(util::fnv1a(run.records), kCaptiveAdversaryDigest) << run.records;
}

}  // namespace
}  // namespace lg
