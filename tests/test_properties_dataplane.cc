// Property suite: data-plane and probing invariants over randomized worlds
// and failure placements.
#include <gtest/gtest.h>

#include <algorithm>

#include "util/hashing.h"
#include "workload/scenarios.h"
#include "workload/sim_world.h"

namespace lg {
namespace {

using topo::AsId;

class DataPlanePropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  DataPlanePropertyTest()
      : world_(workload::SimWorld::small_config(GetParam())),
        rng_(GetParam(), 0xd00dULL) {}

  workload::SimWorld world_;
  util::Rng rng_;
};

TEST_P(DataPlanePropertyTest, ForwardPathsMatchBgpAsPaths) {
  // The router-level path's AS sequence must equal the BGP AS-level route
  // (collapsing prepends) for any (src, dst) pair.
  const auto stubs = world_.stub_vantage_ases(10);
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    const AsId src = stubs[i];
    const AsId dst = stubs[i + 1];
    const auto addr =
        topo::AddressPlan::router_address(topo::RouterId{dst, 0});
    const auto fwd = world_.dataplane().forward(src, addr);
    ASSERT_TRUE(fwd.delivered());
    // Walk the FIBs manually and compare.
    std::vector<AsId> expected{src};
    AsId cur = src;
    for (int guard = 0; guard < 32 && cur != dst; ++guard) {
      const auto fib = world_.engine().fib_lookup(cur, addr);
      ASSERT_TRUE(fib.has_route);
      if (fib.local) break;
      cur = fib.next_hop;
      expected.push_back(cur);
    }
    EXPECT_EQ(fwd.as_path(), expected);
  }
}

TEST_P(DataPlanePropertyTest, ReachAgreesWithForwardFromAnyStartRouter) {
  // reach() is forward() without the hops: the same status and final AS,
  // from the AS core or a border router, clean and under failures.
  const auto stubs = world_.stub_vantage_ases(8);
  for (const AsId as : stubs) world_.announce_production(as);
  world_.converge();
  const auto& dataplane = world_.dataplane();
  int undelivered = 0;
  const auto check_all_pairs = [&] {
    for (const AsId src : stubs) {
      const auto border =
          world_.net().border(src, world_.graph().providers(src).front());
      for (const AsId dst : stubs) {
        if (dst == src) continue;
        const auto last_router = static_cast<std::uint8_t>(
            world_.net().num_routers(dst) - 1);
        for (const topo::Ipv4 addr :
             {topo::AddressPlan::router_address(topo::RouterId{dst, 0}),
              topo::AddressPlan::router_address(
                  topo::RouterId{dst, last_router}),
              topo::AddressPlan::production_host(dst)}) {
          const auto reach = dataplane.reach(src, addr);
          const auto from_core = dataplane.forward(src, addr);
          const auto from_border = dataplane.forward(src, addr, border);
          EXPECT_TRUE(reach.hops.empty());
          EXPECT_EQ(reach.status, from_core.status);
          EXPECT_EQ(reach.final_as, from_core.final_as);
          EXPECT_EQ(reach.status, from_border.status);
          EXPECT_EQ(reach.final_as, from_border.final_as);
          undelivered += reach.delivered() ? 0 : 1;
        }
      }
    }
  };
  check_all_pairs();
  EXPECT_EQ(undelivered, 0);

  const AsId victim = stubs[0];
  world_.failures().inject(dp::Failure{
      .at_as = world_.graph().providers(victim).front(), .toward_as = victim});
  const AsId uplink = world_.graph().providers(stubs[1]).front();
  world_.failures().inject(
      dp::Failure{.at_link = topo::AsLinkKey(stubs[1], uplink)});
  check_all_pairs();
  EXPECT_GT(undelivered, 0);
}

TEST_P(DataPlanePropertyTest, PingEquivalentToBothDirectionsDelivering) {
  const auto stubs = world_.stub_vantage_ases(8);
  for (const AsId src : stubs) {
    world_.announce_production(src);
  }
  world_.converge();
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    const AsId src = stubs[i];
    const AsId dst = stubs[i + 1];
    const auto src_addr = topo::AddressPlan::production_host(src);
    const auto dst_addr = topo::AddressPlan::production_host(dst);
    const auto ping = world_.prober().ping(src, dst_addr, src_addr);
    const bool fwd = world_.dataplane().forward(src, dst_addr).delivered();
    const bool rev = world_.dataplane().forward(dst, src_addr).delivered();
    EXPECT_EQ(ping.replied, fwd && rev);
  }
}

TEST_P(DataPlanePropertyTest, FailureScopingIsExact) {
  // A failure scoped toward AS X drops exactly packets destined to X-owned
  // addresses transiting the failed AS — nothing else.
  const auto stubs = world_.stub_vantage_ases(6);
  const AsId victim = stubs[0];
  const AsId other = stubs[1];
  // Fail victim's first provider, scoped to victim.
  const AsId provider = world_.graph().providers(victim).front();
  const auto id = world_.failures().inject(
      dp::Failure{.at_as = provider, .toward_as = victim});

  for (const AsId src : world_.stub_vantage_ases(10)) {
    if (src == victim || src == other) continue;
    const auto to_victim = world_.dataplane().forward(
        src, topo::AddressPlan::router_address(topo::RouterId{victim, 0}));
    const auto to_other = world_.dataplane().forward(
        src, topo::AddressPlan::router_address(topo::RouterId{other, 0}));
    // Traffic to the victim through the failed provider dies there; any
    // other destination is untouched even when transiting the same AS.
    if (!to_victim.delivered()) {
      EXPECT_EQ(to_victim.status, dp::DeliveryStatus::kDroppedAtAs);
      EXPECT_EQ(to_victim.final_as, provider);
    }
    if (to_other.delivered()) {
      SUCCEED();
    } else {
      // Only acceptable if other's traffic independently crosses another
      // failure — impossible here (single failure).
      ADD_FAILURE() << "unrelated destination affected";
    }
  }
  world_.failures().clear(id);
}

TEST_P(DataPlanePropertyTest, TracerouteVisibleHopsAreTrueHops) {
  // Every hop traceroute *shows* must be a hop the packet actually crossed,
  // in order (no phantom hops), under arbitrary single failures.
  const auto stubs = world_.stub_vantage_ases(8);
  const AsId src = stubs[0];
  world_.announce_production(src);
  world_.converge();
  const auto src_addr = topo::AddressPlan::production_host(src);

  workload::ScenarioGenerator gen(world_, GetParam());
  for (std::size_t i = 1; i < stubs.size(); ++i) {
    const auto dst_addr =
        topo::AddressPlan::router_address(topo::RouterId{stubs[i], 0});
    // Half the trials run under an injected failure.
    std::optional<workload::FailureScenario> scenario;
    if (i % 2 == 0) {
      scenario = gen.make(src, stubs[i],
                          i % 4 == 0 ? core::FailureDirection::kReverse
                                     : core::FailureDirection::kForward);
    }
    const auto tr = world_.prober().traceroute(src, dst_addr, src_addr);
    ASSERT_EQ(tr.hops.size(), tr.true_hops.size());
    for (std::size_t h = 0; h < tr.hops.size(); ++h) {
      if (tr.hops[h]) {
        EXPECT_EQ(*tr.hops[h], tr.true_hops[h]);
      }
    }
    if (scenario) gen.repair(*scenario);
  }
}

TEST_P(DataPlanePropertyTest, SpoofedPingAgreesWithLegComposition) {
  const auto stubs = world_.stub_vantage_ases(9);
  for (const AsId as : stubs) world_.announce_production(as);
  world_.converge();
  for (std::size_t i = 0; i + 2 < stubs.size(); i += 3) {
    const AsId src = stubs[i];
    const AsId dst_as = stubs[i + 1];
    const AsId recv = stubs[i + 2];
    const auto dst = topo::AddressPlan::production_host(dst_as);
    const auto recv_addr = topo::AddressPlan::production_host(recv);
    const auto spoofed = world_.prober().spoofed_ping(src, dst, recv_addr);
    const bool fwd = world_.dataplane().forward(src, dst).delivered();
    const bool reply = world_.dataplane().forward(dst_as, recv_addr).delivered();
    EXPECT_EQ(spoofed.replied, fwd && reply);
  }
}

TEST_P(DataPlanePropertyTest, ScenarioInjectionAlwaysPartialWithWitnesses) {
  const auto stubs = world_.stub_vantage_ases(10);
  const AsId vp = stubs[0];
  world_.announce_production(vp);
  std::vector<AsId> witnesses(stubs.begin() + 1, stubs.end());
  for (const AsId w : witnesses) world_.announce_production(w);
  world_.converge();

  workload::ScenarioGenerator gen(world_, GetParam() * 3 + 1);
  int made = 0;
  for (const AsId target : world_.topology().stubs) {
    if (target == vp) continue;
    auto scenario = gen.make(vp, target, core::FailureDirection::kReverse,
                             false, witnesses);
    if (!scenario) continue;
    ++made;
    // The defining property: vp is cut off, some witness is not.
    const auto vp_addr = topo::AddressPlan::production_host(vp);
    EXPECT_FALSE(world_.prober().ping(vp, scenario->target, vp_addr).replied);
    bool witnessed = false;
    for (const AsId w : witnesses) {
      const auto w_addr = topo::AddressPlan::production_host(w);
      if (world_.prober().ping(w, scenario->target, w_addr).replied) {
        witnessed = true;
        break;
      }
    }
    EXPECT_TRUE(witnessed);
    gen.repair(*scenario);
    if (made >= 5) break;
  }
  EXPECT_GT(made, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataPlanePropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

// FNV-1a over every probe outcome of a fixed (vantage, target) grid under
// three injected failures, with rate limiting on so the responsiveness RNG's
// draws are pinned too: each ping's reply and leg flags, each spoofed ping's
// outcome, and each traceroute's visible and true hops. A change to how a
// probe walks the data plane must leave this digest alone.
std::uint64_t probe_grid_digest() {
  auto cfg = workload::SimWorld::small_config(7);
  cfg.responsiveness.rate_limit_drop_prob = 0.05;
  workload::SimWorld world(cfg);
  const auto vps = world.stub_vantage_ases(6);
  for (const AsId as : vps) world.announce_production(as);
  world.converge();

  const AsId scoped_at = world.graph().providers(vps[1]).front();
  world.failures().inject(dp::Failure{.at_as = scoped_at, .toward_as = vps[1]});
  const AsId uplink = world.graph().providers(vps[2]).front();
  world.failures().inject(dp::Failure{
      .at_link = topo::AsLinkKey(vps[2], uplink), .direction_from = uplink});
  world.failures().inject(
      dp::Failure{.at_as = world.topology().large_transit.front()});

  std::vector<topo::Ipv4> targets;
  for (const AsId as : vps) {
    targets.push_back(topo::AddressPlan::production_host(as));
    targets.push_back(topo::AddressPlan::router_address(
        topo::RouterId{as, static_cast<std::uint8_t>(
                               world.net().num_routers(as) - 1)}));
  }
  for (std::size_t i = 0; i < 3; ++i) {
    targets.push_back(topo::AddressPlan::router_address(
        topo::RouterId{world.topology().large_transit[i], 0}));
  }

  util::Fnv1a h;
  const auto router = [&](const topo::RouterId& r) {
    h.u64(r.as);
    h.byte(r.index);
  };
  auto& prober = world.prober();
  for (std::size_t v = 0; v < vps.size(); ++v) {
    const AsId src = vps[v];
    const auto src_addr = topo::AddressPlan::production_host(src);
    const auto receiver =
        topo::AddressPlan::production_host(vps[(v + 1) % vps.size()]);
    for (const topo::Ipv4 dst : targets) {
      const auto ping = prober.ping(src, dst, src_addr);
      h.byte(ping.replied);
      h.byte(ping.forward_delivered);
      h.byte(ping.reverse_delivered);
      h.byte(ping.responder_answered);
      h.byte(prober.spoofed_ping(src, dst, receiver).replied);
      const auto tr = prober.traceroute(src, dst, src_addr);
      h.u64(tr.hops.size());
      for (const auto& hop : tr.hops) {
        h.byte(hop.has_value());
        if (hop) router(*hop);
      }
      h.u64(tr.true_hops.size());
      for (const auto& hop : tr.true_hops) router(hop);
      h.byte(static_cast<std::uint8_t>(tr.forward_status));
      h.byte(tr.destination_replied);
    }
  }
  return h.state;
}

TEST(ProbeGridDigestTest, MatchesGoldenDigest) {
  EXPECT_EQ(probe_grid_digest(), 0x33df25763b58feb0ULL);
}

}  // namespace
}  // namespace lg
