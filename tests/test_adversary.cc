// lg::adversary — the hostile-policy plane and its consumers:
//  * a disabled plane is inert (the "adversary off = byte-identical
//    benches" guarantee) and profiles are pure functions of
//    (seed, AS, role, prevalences);
//  * role eligibility: default routes and destabilizers on stubs only,
//    Peerlock on the tier-1 clique + large transit only;
//  * the speaker import filters at their edges: a path exactly at the
//    length limit passes, one hop over is rejected (and clears the slot);
//    the Peerlock drop matrix with its customer and clique exemptions;
//  * default-routed stubs: control plane repaired, data plane still
//    forwarding (the captive signature);
//  * destabilizer schedules are finite, alternating, and bounded by the
//    engine's route-flap damping;
//  * the differential oracle agrees with the engine with adversaries on.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "adversary/adversary_plane.h"
#include "adversary/destabilizer.h"
#include "bgp/engine.h"
#include "check/fuzzer.h"
#include "topology/addressing.h"
#include "topology/generator.h"
#include "util/scheduler.h"
#include "workload/destabilizer.h"
#include "workload/sim_world.h"

namespace lg {
namespace {

using adversary::AdversaryConfig;
using adversary::AdversaryPlane;
using adversary::Profile;
using adversary::Role;
using adversary::RoleTable;
using topo::AsId;

topo::GeneratedTopology small_topology(std::uint64_t seed = 7) {
  topo::TopologyParams tp;
  tp.num_tier1 = 3;
  tp.num_large_transit = 4;
  tp.num_small_transit = 6;
  tp.num_stubs = 20;
  tp.seed = seed;
  return topo::generate_topology(tp);
}

TEST(AdversaryPlane, DisabledPlaneIsInert) {
  AdversaryPlane plane;  // default config: disabled
  EXPECT_FALSE(plane.enabled());
  const Profile p = plane.profile_for(42, Role::kStub);
  EXPECT_FALSE(p.any());
  EXPECT_EQ(p.path_length_limit, 0u);
}

TEST(AdversaryPlane, CurrentDefaultsToDisabledAndScopes) {
  EXPECT_FALSE(AdversaryPlane::current().enabled());
  AdversaryPlane plane(AdversaryConfig::at_prevalence(1.0));
  {
    adversary::ScopedAdversaryPlane scope(plane);
    EXPECT_EQ(&AdversaryPlane::current(), &plane);
    EXPECT_TRUE(AdversaryPlane::current().enabled());
  }
  EXPECT_FALSE(AdversaryPlane::current().enabled());
}

TEST(AdversaryPlane, AtPrevalenceSetsEveryKnobAndClamps) {
  const auto cfg = AdversaryConfig::at_prevalence(0.3);
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.pathlen_prevalence, 0.3);
  EXPECT_EQ(cfg.default_route_prevalence, 0.3);
  EXPECT_EQ(cfg.peerlock_prevalence, 0.3);
  EXPECT_EQ(cfg.destabilizer_prevalence, 0.3);
  EXPECT_FALSE(AdversaryConfig::at_prevalence(0.0).enabled);
  EXPECT_EQ(AdversaryConfig::at_prevalence(7.0).pathlen_prevalence, 1.0);
}

TEST(AdversaryPlane, ProfilesArePureFunctionsOfSeedAndAs) {
  const auto cfg = AdversaryConfig::at_prevalence(0.5);
  AdversaryPlane a(cfg);
  AdversaryPlane b(cfg);
  bool any_assigned = false;
  for (AsId id = 1; id <= 200; ++id) {
    const Profile pa = a.profile_for(id, Role::kStub);
    const Profile pb = b.profile_for(id, Role::kStub);
    EXPECT_EQ(pa.path_length_limit, pb.path_length_limit);
    EXPECT_EQ(pa.default_route, pb.default_route);
    EXPECT_EQ(pa.peerlock, pb.peerlock);
    EXPECT_EQ(pa.destabilizer, pb.destabilizer);
    any_assigned = any_assigned || pa.any();
  }
  EXPECT_TRUE(any_assigned);

  // A different seed reshuffles the assignment.
  AdversaryConfig other = cfg;
  other.seed ^= 0xdeadbeefULL;
  AdversaryPlane c(other);
  std::size_t differing = 0;
  for (AsId id = 1; id <= 200; ++id) {
    if (a.profile_for(id, Role::kStub).default_route !=
        c.profile_for(id, Role::kStub).default_route) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0u);
}

TEST(AdversaryPlane, RoleEligibilityGatesBehaviors) {
  AdversaryPlane plane(AdversaryConfig::at_prevalence(1.0));
  for (AsId id = 1; id <= 50; ++id) {
    const Profile stub = plane.profile_for(id, Role::kStub);
    EXPECT_TRUE(stub.default_route);
    EXPECT_TRUE(stub.destabilizer);
    EXPECT_FALSE(stub.peerlock);
    EXPECT_GT(stub.path_length_limit, 0u);

    const Profile tier1 = plane.profile_for(id, Role::kTier1);
    EXPECT_TRUE(tier1.peerlock);
    EXPECT_FALSE(tier1.default_route);
    EXPECT_FALSE(tier1.destabilizer);

    const Profile large = plane.profile_for(id, Role::kLargeTransit);
    EXPECT_TRUE(large.peerlock);
    EXPECT_FALSE(large.default_route);

    const Profile small = plane.profile_for(id, Role::kSmallTransit);
    EXPECT_FALSE(small.peerlock);
    EXPECT_FALSE(small.default_route);
    EXPECT_FALSE(small.destabilizer);
  }
}

TEST(AdversaryPlane, PathLengthLimitsStayInConfiguredRange) {
  auto cfg = AdversaryConfig::at_prevalence(1.0);
  cfg.pathlen_min_limit = 4;
  cfg.pathlen_max_limit = 6;
  AdversaryPlane plane(cfg);
  for (AsId id = 1; id <= 100; ++id) {
    const Profile p = plane.profile_for(id, Role::kSmallTransit);
    EXPECT_GE(p.path_length_limit, 4u);
    EXPECT_LE(p.path_length_limit, 6u);
  }
}

TEST(AdversaryPlane, RoleTableMirrorsTopologyStructure) {
  const auto gt = small_topology();
  const RoleTable roles(gt.graph);
  for (const AsId id : gt.graph.as_ids()) {
    const Role r = roles.role(id);
    if (gt.graph.providers(id).empty()) {
      EXPECT_EQ(r, Role::kTier1) << "AS " << id;
    } else if (gt.graph.customers(id).empty()) {
      EXPECT_EQ(r, Role::kStub) << "AS " << id;
    } else {
      EXPECT_TRUE(r == Role::kLargeTransit || r == Role::kSmallTransit)
          << "AS " << id;
    }
  }
  // The locked set is exactly the provider-free clique, sorted.
  const auto locked = adversary::locked_ases(gt.graph);
  EXPECT_TRUE(std::is_sorted(locked.begin(), locked.end()));
  for (const AsId id : gt.graph.as_ids()) {
    const bool is_locked =
        std::binary_search(locked.begin(), locked.end(), id);
    EXPECT_EQ(is_locked, gt.graph.providers(id).empty()) << "AS " << id;
  }
}

TEST(AdversaryPlane, EngineAppliesProfilesWhenScoped) {
  const auto gt = small_topology();
  AdversaryPlane plane(AdversaryConfig::at_prevalence(1.0));
  adversary::ScopedAdversaryPlane scope(plane);
  util::Scheduler sched;
  bgp::BgpEngine engine(gt.graph, sched);
  const RoleTable roles(gt.graph);
  for (const AsId id : gt.graph.as_ids()) {
    const Profile p = plane.profile_for(id, roles.role(id));
    const bgp::SpeakerConfig& cfg = engine.speaker(id).config();
    EXPECT_EQ(cfg.path_length_limit, p.path_length_limit) << "AS " << id;
    EXPECT_EQ(cfg.has_default_route, p.default_route) << "AS " << id;
    EXPECT_EQ(cfg.peerlock_filter, p.peerlock) << "AS " << id;
  }
}

TEST(AdversaryPlane, DisabledPlaneLeavesEngineConfigsAlone) {
  const auto gt = small_topology();
  util::Scheduler sched;
  bgp::BgpEngine engine(gt.graph, sched);  // no plane scoped
  for (const AsId id : gt.graph.as_ids()) {
    const bgp::SpeakerConfig& cfg = engine.speaker(id).config();
    EXPECT_EQ(cfg.path_length_limit, 0u);
    EXPECT_FALSE(cfg.peerlock_filter);
    EXPECT_FALSE(cfg.has_default_route);
  }
  EXPECT_EQ(engine.pathlen_rejections(), 0u);
  EXPECT_EQ(engine.peerlock_rejections(), 0u);
}

// ---- Speaker import filters -------------------------------------------

// Chain S -> F (F provides transit to S). S originates with a crafted path
// of chosen length; F's import filter judges exactly that path.
struct FilterRig {
  topo::AsGraph graph;
  util::Scheduler sched;
  AsId s = 1, f = 2;

  FilterRig() {
    graph.add_as(s);
    graph.add_as(f);
    graph.add_link(s, f, topo::Rel::kProvider);  // F provides transit to S
  }
};

TEST(PathLengthFilter, ThresholdEdgeAcceptsAtLimitRejectsOver) {
  FilterRig rig;
  bgp::BgpEngine engine(rig.graph, rig.sched);
  engine.speaker(rig.f).mutable_config().path_length_limit = 3;
  const topo::Prefix prefix = topo::AddressPlan::production_prefix(rig.s);

  bgp::OriginPolicy at_limit;
  at_limit.default_path = bgp::PathRef(bgp::baseline_path(rig.s, 3));
  engine.originate(rig.s, prefix, at_limit);
  rig.sched.run();
  ASSERT_NE(engine.best_route(rig.f, prefix), nullptr);
  EXPECT_EQ(engine.pathlen_rejections(), 0u);

  // One hop over the limit: rejected, and the rejection acts as an implicit
  // withdrawal of the previously accepted route.
  bgp::OriginPolicy over_limit;
  over_limit.default_path = bgp::PathRef(bgp::baseline_path(rig.s, 4));
  engine.originate(rig.s, prefix, over_limit);
  rig.sched.run();
  EXPECT_EQ(engine.best_route(rig.f, prefix), nullptr);
  EXPECT_EQ(engine.pathlen_rejections(), 1u);
}

TEST(PathLengthFilter, ZeroLimitMeansNoFilter) {
  FilterRig rig;
  bgp::BgpEngine engine(rig.graph, rig.sched);
  const topo::Prefix prefix = topo::AddressPlan::production_prefix(rig.s);
  bgp::OriginPolicy longpath;
  longpath.default_path = bgp::PathRef(bgp::baseline_path(rig.s, 12));
  engine.originate(rig.s, prefix, longpath);
  rig.sched.run();
  EXPECT_NE(engine.best_route(rig.f, prefix), nullptr);
  EXPECT_EQ(engine.pathlen_rejections(), 0u);
}

// Peerlock drop matrix. Topology gives the hops their relationships:
//  * L is provider-free (locked), with customer C;
//  * Q is provider-free (locked, "clique");
//  * P is a transit with provider Q, peering with L;
//  * X is a transit with provider Q, no relationship with L at all.
// S originates crafted paths through F (F provides transit to S; F has a
// provider so F itself is not locked).
struct PeerlockRig {
  topo::AsGraph graph;
  util::Scheduler sched;
  AsId s = 1, f = 2, l = 3, c = 4, p = 5, q = 6, x = 7;

  PeerlockRig() {
    for (const AsId id : {s, f, l, c, p, q, x}) graph.add_as(id);
    graph.add_link(s, f, topo::Rel::kProvider);  // F provides transit to S
    graph.add_link(f, q, topo::Rel::kProvider);  // F not provider-free
    graph.add_link(c, l, topo::Rel::kProvider);  // C is L's customer
    graph.add_link(p, q, topo::Rel::kProvider);
    graph.add_link(x, q, topo::Rel::kProvider);
    graph.add_link(p, l, topo::Rel::kPeer);
  }

  // Announce `path` from S and return F's resulting route (may be null).
  const bgp::Route* announce(bgp::BgpEngine& engine,
                             const bgp::AsPath& path) {
    const topo::Prefix prefix = topo::AddressPlan::production_prefix(s);
    bgp::OriginPolicy policy;
    policy.default_path = bgp::PathRef(path);
    engine.originate(s, prefix, policy);
    sched.run();
    return engine.best_route(f, prefix);
  }
};

TEST(PeerlockFilter, DropsLockedAsBehindPeer) {
  PeerlockRig rig;
  bgp::BgpEngine engine(rig.graph, rig.sched);
  engine.speaker(rig.f).mutable_config().peerlock_filter = true;
  // L appears behind its peer P: a leak, dropped.
  EXPECT_EQ(rig.announce(engine, bgp::AsPath{rig.s, rig.p, rig.l}), nullptr);
  EXPECT_EQ(engine.peerlock_rejections(), 1u);
}

TEST(PeerlockFilter, DropsLockedAsBehindStranger) {
  PeerlockRig rig;
  bgp::BgpEngine engine(rig.graph, rig.sched);
  engine.speaker(rig.f).mutable_config().peerlock_filter = true;
  // X has no relationship with L — certainly not its customer: dropped.
  EXPECT_EQ(rig.announce(engine, bgp::AsPath{rig.s, rig.x, rig.l}), nullptr);
  EXPECT_EQ(engine.peerlock_rejections(), 1u);
}

TEST(PeerlockFilter, CustomerExemptionAccepts) {
  PeerlockRig rig;
  bgp::BgpEngine engine(rig.graph, rig.sched);
  engine.speaker(rig.f).mutable_config().peerlock_filter = true;
  // L behind its own customer C is the legitimate export direction.
  EXPECT_NE(rig.announce(engine, bgp::AsPath{rig.s, rig.c, rig.l}), nullptr);
  EXPECT_EQ(engine.peerlock_rejections(), 0u);
}

TEST(PeerlockFilter, CliqueExemptionAccepts) {
  PeerlockRig rig;
  bgp::BgpEngine engine(rig.graph, rig.sched);
  engine.speaker(rig.f).mutable_config().peerlock_filter = true;
  // Through Q's customer P up to Q, then L behind fellow clique member Q:
  // the customer exemption covers P->Q and the clique exemption Q->L.
  EXPECT_NE(rig.announce(engine, bgp::AsPath{rig.s, rig.p, rig.q, rig.l}),
            nullptr);
  EXPECT_EQ(engine.peerlock_rejections(), 0u);
}

TEST(PeerlockFilter, FilterOffAcceptsTheLeak) {
  PeerlockRig rig;
  bgp::BgpEngine engine(rig.graph, rig.sched);
  EXPECT_NE(rig.announce(engine, bgp::AsPath{rig.s, rig.p, rig.l}), nullptr);
  EXPECT_EQ(engine.peerlock_rejections(), 0u);
}

// ---- Default-routed stubs: the captive signature ----------------------

TEST(DefaultRoute, ControlPlaneRepairedDataPlaneStillForwards) {
  // O -> V -> S: V provides transit to both; S is a default-routed stub.
  topo::AsGraph graph;
  const AsId o = 1, v = 2, s = 3;
  for (const AsId id : {o, v, s}) graph.add_as(id);
  graph.add_link(o, v, topo::Rel::kProvider);
  graph.add_link(s, v, topo::Rel::kProvider);
  util::Scheduler sched;
  bgp::BgpEngine engine(graph, sched);
  engine.speaker(s).mutable_config().has_default_route = true;

  const topo::Prefix prefix = topo::AddressPlan::production_prefix(o);
  bgp::OriginPolicy policy;
  policy.default_path = bgp::PathRef(bgp::AsPath{o});
  engine.originate(o, prefix, policy);
  sched.run();
  ASSERT_NE(engine.best_route(s, prefix), nullptr);

  // Withdrawal (what a poison does to a filtered AS): the RIB empties — the
  // control plane looks repaired — but the FIB still forwards via the
  // default toward the provider. That gap is what captive detection audits.
  engine.withdraw(o, prefix);
  sched.run();
  EXPECT_EQ(engine.best_route(s, prefix), nullptr);
  const bgp::FibResult fib = engine.speaker(s).fib_lookup(prefix.addr());
  EXPECT_TRUE(fib.via_default);
  EXPECT_EQ(engine.speaker(s).default_gateway(), std::optional<AsId>(v));
}

// ---- Destabilizer ------------------------------------------------------

TEST(Destabilizer, ScheduleIsFiniteAlternatingAndDeterministic) {
  adversary::DestabilizerConfig cfg;
  cfg.max_cycles = 5;
  cfg.prepend_variants = 3;
  const auto a = adversary::destabilizer_schedule(123, 77, cfg);
  const auto b = adversary::destabilizer_schedule(123, 77, cfg);
  ASSERT_EQ(a.size(), 2 * cfg.max_cycles);
  ASSERT_EQ(a.size(), b.size());
  double last = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].prepends, b[i].prepends);
    EXPECT_GT(a[i].at, last);
    last = a[i].at;
    const auto want = i % 2 == 0 ? adversary::StepKind::kAnnounce
                                 : adversary::StepKind::kWithdraw;
    EXPECT_EQ(a[i].kind, want);
    EXPECT_LT(a[i].prepends, cfg.prepend_variants);
  }
  // Different AS, different timing.
  const auto other = adversary::destabilizer_schedule(123, 78, cfg);
  EXPECT_NE(a.front().at, other.front().at);
}

TEST(Destabilizer, WorkloadQuiescesAndDampingBoundsChurn) {
  const auto run_world = [](bool damping) {
    AdversaryConfig cfg;
    cfg.enabled = true;
    cfg.destabilizer_prevalence = 1.0;
    AdversaryPlane plane(cfg);
    adversary::ScopedAdversaryPlane scope(plane);
    obs::MetricsRegistry reg;
    obs::ScopedMetricsRegistry scoped_reg(reg);
    workload::SimWorld world(workload::SimWorld::small_config(11));
    if (damping) {
      for (const AsId id : world.graph().as_ids()) {
        world.engine().speaker(id).mutable_config().damping_enabled = true;
      }
    }
    workload::DestabilizerWorkloadConfig dcfg;
    dcfg.max_destabilizers = 4;
    workload::DestabilizerWorkload destab(world, dcfg);
    destab.start({});
    EXPECT_EQ(destab.destabilizer_ases().size(), 4u);
    world.advance(5000.0);
    EXPECT_GT(destab.steps_played(), 0u);
    // Finite playbook: every trial still quiesces.
    EXPECT_LE(destab.steps_played(),
              2 * adversary::DestabilizerConfig{}.max_cycles *
                  dcfg.max_destabilizers);
    return world.engine().total_messages();
  };
  const std::uint64_t undamped = run_world(false);
  const std::uint64_t damped = run_world(true);
  // Damping suppresses the flapping sessions, so the same playbook moves
  // strictly fewer updates — the backstop that bounds a destabilizer.
  EXPECT_LT(damped, undamped);
}

// ---- Differential oracle with adversaries on ---------------------------

TEST(AdversaryDifferential, SweepAgreesWithReference) {
  const auto summary =
      check::run_sweep(910000, 12, /*fault_intensity=*/0.0,
                       /*log_failures=*/true, /*adversary_prevalence=*/0.5);
  EXPECT_TRUE(summary.ok()) << summary.failing_seeds.size()
                            << " failing seeds";
}

TEST(AdversaryDifferential, FullPrevalenceSweepAgrees) {
  const auto summary = check::run_sweep(920000, 8, 0.0, true, 1.0);
  EXPECT_TRUE(summary.ok());
}

TEST(AdversaryDifferential, HighPrevalenceSweepAgrees) {
  const auto summary = check::run_sweep(930000, 6, 0.0, true, 0.7);
  EXPECT_TRUE(summary.ok());
}

TEST(AdversaryDifferential, ReplaysSeedFromEnvironment) {
  const auto seed = check::replay_seed_from_env();
  if (!seed.has_value()) {
    GTEST_SKIP() << "LG_CHECK_SEED not set";
  }
  check::ScenarioOptions opt;
  opt.seed = *seed;
  opt.adversary_prevalence = 0.5;
  const auto result = check::run_scenario(opt);
  EXPECT_TRUE(result.ok()) << result.summary();
}

}  // namespace
}  // namespace lg
