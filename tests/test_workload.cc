// Workload generators and models: the EC2-calibrated outage distribution
// (Fig. 1/5 inputs), the Table-2 load model, SimWorld wiring, and scenario
// generation invariants.
#include <gtest/gtest.h>

#include "util/hashing.h"
#include "util/rng.h"
#include "workload/load_model.h"
#include "workload/outages.h"
#include "workload/scenarios.h"
#include "workload/sim_world.h"

namespace lg {
namespace {

using topo::AsId;

TEST(OutageDurationTest, RespectsDetectionFloor) {
  util::Rng rng(1);
  const workload::OutageDurationParams params;
  for (int i = 0; i < 20000; ++i) {
    EXPECT_GE(workload::sample_outage_duration(rng, params),
              workload::kOutageFloorSeconds);
  }
}

TEST(OutageDurationTest, MatchesPaperHeadlineStatistics) {
  const auto study = workload::generate_outage_study(10308);
  // ">90% of outages lasted at most 10 minutes" (§2.1).
  EXPECT_GT(study.cdf(600.0), 0.90);
  // "84% of the total unavailability was due to outages longer than 10
  // minutes" — allow a few points of slack around the calibration target.
  EXPECT_NEAR(study.mass_fraction_above(600.0), 0.84, 0.05);
  // "The median duration of an outage in the study was only 90 seconds
  // (the minimum possible given the methodology)".
  EXPECT_LT(study.median(), 125.0);
  EXPECT_GE(study.median(), 90.0);
}

TEST(OutageDurationTest, ResidualPersistenceMatchesSec42) {
  const auto study = workload::generate_outage_study(10308);
  // "of the problems that persisted for at least 5 minutes, 51% lasted at
  // least another 5 minutes" — the property justifying poisoning.
  const auto n5 = study.count_above(300.0);
  const auto n10 = study.count_above(600.0);
  ASSERT_GT(n5, 0u);
  const double persist = static_cast<double>(n10) / static_cast<double>(n5);
  EXPECT_GT(persist, 0.40);
  EXPECT_LT(persist, 0.70);
}

TEST(OutageDurationTest, ResidualRowsAreMonotoneInputs) {
  const auto study = workload::generate_outage_study(5000);
  const auto rows =
      workload::residual_duration_rows(study, {0.0, 5.0, 10.0, 30.0});
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i].surviving, rows[i - 1].surviving);
  }
  // Residual duration *grows* with elapsed time (heavy tail): the paper's
  // core argument for acting on old outages.
  EXPECT_GT(rows[2].mean_residual_min, rows[0].mean_residual_min);
}

TEST(OutageDurationTest, GenerationIsDeterministicPerSeed) {
  const auto a = workload::generate_outage_study(100, {}, 7);
  const auto b = workload::generate_outage_study(100, {}, 7);
  EXPECT_EQ(a.sorted_samples(), b.sorted_samples());
}

// A week of arrivals at 60/h with uncapped durations reaches every mixture
// component, the one-week tail cap included; the digest pins each start and
// duration bit for bit.
TEST(OutageDurationTest, OutageProcessIsPinned) {
  util::Rng rng(20100720);
  const auto events =
      workload::sample_outage_process(rng, 60.0, 7.0 * 86400.0);
  util::Fnv1a h;
  std::size_t at_tail_cap = 0;
  for (const auto& e : events) {
    h.f64(e.start_seconds);
    h.f64(e.duration_seconds);
    at_tail_cap += e.duration_seconds == 7.0 * 86400.0;
  }
  EXPECT_GT(at_tail_cap, 0u);
  EXPECT_EQ(h.state, 0x6104e51c61a1e28eULL) << events.size();
}

TEST(LoadModelTest, ReproducesTable2Anchors) {
  workload::LoadModel model;
  // Paper Table 2: I=0.01, T=0.5 => 137/day at d=15, 58/day at d=60.
  EXPECT_NEAR(model.daily_path_changes(0.01, 0.5, 15.0), 137.0, 5.0);
  EXPECT_NEAR(model.daily_path_changes(0.01, 0.5, 60.0), 58.0, 3.0);
  // And the d=5 extrapolation lands near 393/day.
  EXPECT_NEAR(model.daily_path_changes(0.01, 0.5, 5.0), 393.0, 25.0);
}

TEST(LoadModelTest, ScalesLinearlyInIAndT) {
  workload::LoadModel model;
  const double base = model.daily_path_changes(0.01, 0.5, 15.0);
  EXPECT_NEAR(model.daily_path_changes(0.02, 0.5, 15.0), 2 * base, 1e-9);
  EXPECT_NEAR(model.daily_path_changes(0.01, 1.0, 15.0), 2 * base, 1e-9);
}

TEST(LoadModelTest, CalibrationFromStudyChangesExtrapolation) {
  workload::LoadModel model;
  const double before = model.daily_path_changes(0.01, 0.5, 5.0);
  // A study with a much lighter tail compresses the 5-minute extrapolation.
  workload::OutageDurationParams light_tail;
  light_tail.floor_weight = 0.30;
  light_tail.short_weight = 0.30;
  light_tail.short_cap = 2000.0;
  light_tail.tail_alpha = 2.5;
  const auto study = workload::generate_outage_study(5000, light_tail);
  model.calibrate_extrapolation(study);
  EXPECT_NE(model.daily_path_changes(0.01, 0.5, 5.0), before);
  EXPECT_THROW(model.poisonable_outages_per_day(1.0), std::invalid_argument);
}

TEST(SimWorldTest, InfrastructureIsGloballyRoutedAfterConverge) {
  workload::SimWorld world(workload::SimWorld::small_config(5));
  const auto ases = world.graph().as_ids();
  // Spot-check: first stub can reach every tier's infra.
  const AsId probe_src = world.topology().stubs.front();
  for (const AsId dst :
       {world.topology().tier1.front(), world.topology().large_transit.front(),
        world.topology().stubs.back()}) {
    const auto addr =
        topo::AddressPlan::router_address(topo::RouterId{dst, 0});
    EXPECT_TRUE(world.dataplane().forward(probe_src, addr).delivered())
        << "stub " << probe_src << " cannot reach AS " << dst;
  }
  EXPECT_GT(ases.size(), 100u);
}

TEST(SimWorldTest, FeedAsesAreHighDegreeTransits) {
  workload::SimWorld world(workload::SimWorld::small_config(5));
  const auto feeds = world.feed_ases(10);
  ASSERT_EQ(feeds.size(), 10u);
  for (const AsId as : feeds) {
    EXPECT_EQ(world.graph().tier(as), topo::AsTier::kTransit);
  }
  // Sorted by descending degree.
  for (std::size_t i = 1; i < feeds.size(); ++i) {
    EXPECT_GE(world.graph().degree(feeds[i - 1]),
              world.graph().degree(feeds[i]));
  }
}

TEST(SimWorldTest, StubVantagePointsAreSpreadAndUnique) {
  workload::SimWorld world(workload::SimWorld::small_config(5));
  const auto vps = world.stub_vantage_ases(10);
  ASSERT_EQ(vps.size(), 10u);
  std::set<AsId> unique(vps.begin(), vps.end());
  EXPECT_EQ(unique.size(), vps.size());
}

TEST(ScenarioTest, ReverseScenarioGroundTruthOnReversePath) {
  workload::SimWorld world(workload::SimWorld::small_config(13));
  const auto vps = world.stub_vantage_ases(4);
  for (const AsId as : vps) world.announce_production(as);
  world.converge();

  workload::ScenarioGenerator gen(world, 5);
  int made = 0;
  for (const AsId target : world.topology().stubs) {
    if (target == vps[0]) continue;
    auto scenario =
        gen.make(vps[0], target, core::FailureDirection::kReverse);
    if (!scenario) continue;
    ++made;
    // Culprit is a transit AS, not an endpoint.
    EXPECT_NE(scenario->culprit_as, vps[0]);
    EXPECT_NE(scenario->culprit_as, target);
    EXPECT_NE(world.graph().tier(scenario->culprit_as), topo::AsTier::kStub);
    // The vantage point is cut off while the failure is installed...
    const auto vp_addr = topo::AddressPlan::production_host(vps[0]);
    EXPECT_FALSE(
        world.prober().ping(vps[0], scenario->target, vp_addr).replied);
    // ...and restored on repair.
    gen.repair(*scenario);
    EXPECT_TRUE(
        world.prober().ping(vps[0], scenario->target, vp_addr).replied);
    if (made >= 5) break;
  }
  EXPECT_GE(made, 3);
}

TEST(ScenarioTest, WitnessRequirementRejectsTotalOutages) {
  workload::SimWorld world(workload::SimWorld::small_config(13));
  const auto vps = world.stub_vantage_ases(4);
  for (const AsId as : vps) world.announce_production(as);
  world.converge();

  workload::ScenarioGenerator gen(world, 6);
  // Witness = the vantage point itself is skipped; an impossible witness set
  // (only the vp) means no scenario can qualify.
  const AsId impossible[] = {vps[0]};
  int made = 0;
  for (const AsId target : world.topology().stubs) {
    if (target == vps[0]) continue;
    if (gen.make(vps[0], target, core::FailureDirection::kForward, false,
                 impossible)) {
      ++made;
    }
  }
  EXPECT_EQ(made, 0);
}

TEST(ScenarioTest, LinkGranularityRecordsCulpritLink) {
  workload::SimWorld world(workload::SimWorld::small_config(13));
  const auto vps = world.stub_vantage_ases(4);
  for (const AsId as : vps) world.announce_production(as);
  world.converge();

  workload::ScenarioGenerator gen(world, 7);
  for (const AsId target : world.topology().stubs) {
    if (target == vps[0]) continue;
    auto scenario = gen.make(vps[0], target, core::FailureDirection::kReverse,
                             /*link_granularity=*/true);
    if (!scenario || !scenario->culprit_link) continue;
    EXPECT_TRUE(scenario->culprit_link->a == scenario->culprit_as ||
                scenario->culprit_link->b == scenario->culprit_as);
    gen.repair(*scenario);
    return;
  }
  GTEST_SKIP() << "no link-granularity scenario available";
}

}  // namespace
}  // namespace lg
