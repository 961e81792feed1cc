// §7.2 DNS-failover repair detection and the Fig. 3 link-granularity
// remediation path in the orchestrator.
#include <gtest/gtest.h>

#include "core/dns_failover.h"
#include "core/lifeguard.h"
#include "topology/generator.h"
#include "workload/scenarios.h"
#include "workload/sim_world.h"

namespace lg {
namespace {

using topo::AsId;

class DnsFailoverTest : public ::testing::Test {
 protected:
  DnsFailoverTest() : world_(workload::SimWorld::small_config(61)) {
    origin_ = world_.topology().first_multihomed_stub();
    client_ = topo::kInvalidAs;
    for (const AsId as : world_.stub_vantage_ases(6)) {
      if (as != origin_) {
        client_ = as;
        world_.announce_production(as);
      }
    }
    world_.converge();
  }

  workload::SimWorld world_;
  AsId origin_ = topo::kInvalidAs;
  AsId client_ = topo::kInvalidAs;
};

TEST_F(DnsFailoverTest, RoutingIsConsistentAcrossServicePrefixes) {
  core::DnsFailoverMonitor monitor(world_.engine(), world_.prober(), origin_);
  monitor.announce_both();
  world_.converge();
  // The paper's Google experiment: clients reach all of the provider's
  // prefixes over the same AS path when nothing is poisoned.
  for (const AsId as : world_.stub_vantage_ases(8)) {
    if (as == origin_) continue;
    EXPECT_TRUE(monitor.routing_consistent_for(as)) << "client AS " << as;
  }
}

TEST_F(DnsFailoverTest, AlternatePrefixTracksOriginalPathHealth) {
  core::DnsFailoverMonitor monitor(world_.engine(), world_.prober(), origin_);
  monitor.announce_both();
  world_.converge();
  ASSERT_TRUE(monitor.client_reaches_alternate(client_));

  // Reverse failure on the client's path toward the origin.
  workload::ScenarioGenerator gen(world_, 71);
  auto scenario =
      gen.make(client_, origin_, core::FailureDirection::kForward);
  // (client -> origin direction failure == "reverse" from origin's view)
  if (!scenario) GTEST_SKIP() << "no scenario";

  // Poison the culprit on the primary only.
  monitor.poison_primary(scenario->culprit_as);
  world_.converge();
  EXPECT_TRUE(monitor.primary_poisoned());

  // The alternate prefix still follows the broken path: unreachable.
  EXPECT_FALSE(monitor.client_reaches_alternate(client_));
  // The poisoned primary routed around: reachable again.
  const auto p1_addr = monitor.primary().addr() + 1;
  const auto client_addr = topo::AddressPlan::production_host(client_);
  EXPECT_TRUE(world_.prober().ping(client_, p1_addr, client_addr).replied);

  // Repair the underlying failure: the alternate heals, signalling unpoison.
  gen.repair(*scenario);
  EXPECT_TRUE(monitor.client_reaches_alternate(client_));
  monitor.unpoison_primary();
  world_.converge();
  EXPECT_FALSE(monitor.primary_poisoned());
  EXPECT_TRUE(world_.prober().ping(client_, p1_addr, client_addr).replied);
}

TEST_F(DnsFailoverTest, PrefixesAreDistinctAndBothRouted) {
  core::DnsFailoverMonitor monitor(world_.engine(), world_.prober(), origin_);
  EXPECT_NE(monitor.primary(), monitor.alternate());
  EXPECT_FALSE(monitor.primary().covers(monitor.alternate()));
  monitor.announce_both();
  world_.converge();
  for (const auto& prefix : {monitor.primary(), monitor.alternate()}) {
    const auto* route = world_.engine().best_route(client_, prefix);
    EXPECT_NE(route, nullptr) << prefix.str();
  }
}

// ---- Fig. 3 link-granularity remediation inside the orchestrator ----

TEST(LifeguardSelectiveTest, LinkBlameTriggersSelectivePoisoning) {
  // Hand-wire the Fig. 3 world (O multihomed via disjoint chains to A).
  const auto topo = topo::make_fig3_topology();
  util::Scheduler sched;
  bgp::BgpEngine engine(topo.graph, sched);
  dp::RouterNet net(topo.graph);
  dp::FailureInjector failures;
  dp::DataPlane dataplane(engine, net, failures);
  measure::Responsiveness resp(
      measure::ResponsivenessConfig{.never_respond_frac = 0.0});
  measure::Prober prober(dataplane, resp);
  for (const AsId as : topo.graph.as_ids()) {
    bgp::OriginPolicy infra;
    infra.default_path = bgp::AsPath{as};
    engine.originate(as, topo::AddressPlan::infrastructure_prefix(as), infra);
  }
  // Helper VPs at C1 and C4 (clean-side and B2-side).
  for (const AsId as : {topo.c1, topo.c4}) {
    bgp::OriginPolicy prod;
    prod.default_path = bgp::AsPath{as};
    engine.originate(as, topo::AddressPlan::production_prefix(as), prod);
  }
  sched.run();

  core::LifeguardConfig cfg;
  cfg.decision.min_elapsed_seconds = 300.0;
  core::Lifeguard guard(sched, engine, prober, topo.o, cfg);
  guard.set_helpers({measure::VantagePoint::in_as(topo.c1),
                     measure::VantagePoint::in_as(topo.c4)});
  // Monitor C3's core router (C3 is captive behind A, riding the A-B2
  // chain toward O).
  const auto target =
      topo::AddressPlan::router_address(topo::RouterId{topo.c3, 0});
  guard.add_target(target);
  guard.start();
  sched.run(sched.now() + 700.0);

  // Silent failure on the A->B2 link for traffic toward O.
  failures.inject(dp::Failure{.at_link = topo::AsLinkKey(topo.a, topo.b2),
                              .direction_from = topo.a,
                              .toward_as = topo.o});
  sched.run(sched.now() + 1500.0);

  ASSERT_FALSE(guard.episodes().empty());
  const auto& record = guard.episodes().front();
  EXPECT_EQ(record.isolation.direction, core::FailureDirection::kReverse);
  ASSERT_TRUE(record.isolation.blamed_link.has_value());
  EXPECT_EQ(*record.isolation.blamed_link, topo::AsLinkKey(topo.a, topo.b2));
  EXPECT_EQ(record.action, core::RepairAction::kSelectivePoison);
  // A keeps a route (via the clean B1 chain) — it was steered, not cut.
  const auto* a_route = engine.best_route(
      topo.a, topo::AddressPlan::production_prefix(topo.o));
  ASSERT_NE(a_route, nullptr);
  EXPECT_FALSE(bgp::path_traverses(a_route->path, topo.b2, topo.o));
  // And the monitored path works again.
  const auto vp = guard.vantage();
  EXPECT_TRUE(prober.ping(vp.as, target, vp.addr).replied);
}

}  // namespace
}  // namespace lg
