// End-to-end check of the paper's Figure 2: routing tables before and after
// the origin O poisons AS A, including the sentinel backup for the captive
// AS F. These tests pin down the exact mechanism LIFEGUARD relies on.
#include <gtest/gtest.h>

#include "bgp/engine.h"
#include "check/audit.h"
#include "core/remediation.h"
#include "topology/addressing.h"
#include "topology/generator.h"
#include "util/scheduler.h"

namespace lg {
namespace {

using bgp::AsPath;

class Fig2Test : public ::testing::Test {
 protected:
  Fig2Test()
      : topo_(topo::make_fig2_topology()),
        engine_(topo_.graph, sched_),
        remediator_(engine_, topo_.o) {}

  void announce_and_converge() {
    remediator_.announce_baseline();
    sched_.run();
    check::maybe_audit(engine_, "fig2 baseline");
  }

  const bgp::Route* route_of(topo::AsId as) {
    return engine_.best_route(as, remediator_.production_prefix());
  }
  const bgp::Route* sentinel_route_of(topo::AsId as) {
    return engine_.best_route(as, remediator_.sentinel_prefix());
  }

  topo::Fig2Topology topo_;
  util::Scheduler sched_;
  bgp::BgpEngine engine_;
  core::Remediator remediator_;
};

TEST_F(Fig2Test, BaselineRoutesMatchPaperTables) {
  announce_and_converge();
  // B hears the prepended baseline directly from O.
  ASSERT_NE(route_of(topo_.b), nullptr);
  EXPECT_EQ(route_of(topo_.b)->path, (AsPath{topo_.o, topo_.o, topo_.o}));
  EXPECT_EQ(route_of(topo_.b)->neighbor, topo_.o);
  // A via its customer B.
  ASSERT_NE(route_of(topo_.a), nullptr);
  EXPECT_EQ(route_of(topo_.a)->path,
            (AsPath{topo_.b, topo_.o, topo_.o, topo_.o}));
  // C prefers its customer B over peer A.
  ASSERT_NE(route_of(topo_.c), nullptr);
  EXPECT_EQ(route_of(topo_.c)->neighbor, topo_.b);
  // D via provider C.
  ASSERT_NE(route_of(topo_.d), nullptr);
  EXPECT_EQ(route_of(topo_.d)->path,
            (AsPath{topo_.c, topo_.b, topo_.o, topo_.o, topo_.o}));
  // E multihomed: the A route (5 hops) beats the D route (6 hops).
  ASSERT_NE(route_of(topo_.e), nullptr);
  EXPECT_EQ(route_of(topo_.e)->neighbor, topo_.a);
  // F captive behind A.
  ASSERT_NE(route_of(topo_.f), nullptr);
  EXPECT_EQ(route_of(topo_.f)->neighbor, topo_.a);
}

TEST_F(Fig2Test, PoisoningAWithdrawsItsRoutesAndRetainsLength) {
  announce_and_converge();
  remediator_.poison(topo_.a);
  sched_.run();

  // A rejects the poisoned path (its own ASN appears) => no route.
  EXPECT_EQ(route_of(topo_.a), nullptr);
  // B still routes directly; the poisoned path has the same length as the
  // baseline (O-A-O vs O-O-O) so nothing else about B's choice changes.
  ASSERT_NE(route_of(topo_.b), nullptr);
  EXPECT_EQ(route_of(topo_.b)->path, (AsPath{topo_.o, topo_.a, topo_.o}));
  EXPECT_EQ(route_of(topo_.b)->path.size(), 3u);
  // E must fall back to its less-preferred route through D. The poisoned
  // announcement still *contains* A in the crafted suffix (D-C-B-O-A-O,
  // exactly Fig. 2b), but traffic no longer traverses A.
  ASSERT_NE(route_of(topo_.e), nullptr);
  EXPECT_EQ(route_of(topo_.e)->neighbor, topo_.d);
  EXPECT_EQ(route_of(topo_.e)->path,
            (AsPath{topo_.d, topo_.c, topo_.b, topo_.o, topo_.a, topo_.o}));
  EXPECT_FALSE(bgp::path_traverses(route_of(topo_.e)->path, topo_.a, topo_.o));
  // F has no production route at all (captive).
  EXPECT_EQ(route_of(topo_.f), nullptr);
}

TEST_F(Fig2Test, SentinelSurvivesPoisoningAndCoversCaptives) {
  announce_and_converge();
  remediator_.poison(topo_.a);
  sched_.run();

  // Sentinel routes are untouched: A and F still hold them.
  ASSERT_NE(sentinel_route_of(topo_.a), nullptr);
  EXPECT_EQ(bgp::count_occurrences(sentinel_route_of(topo_.a)->path, topo_.a),
            0u);
  ASSERT_NE(sentinel_route_of(topo_.f), nullptr);
  // F's FIB falls through the dead /24 onto the covering /23 via A — the
  // Backup property.
  const auto fib = engine_.speaker(topo_.f).fib_lookup(
      topo::AddressPlan::production_host(topo_.o));
  ASSERT_TRUE(fib.has_route);
  EXPECT_EQ(fib.next_hop, topo_.a);
  EXPECT_EQ(fib.matched, remediator_.sentinel_prefix());
}

TEST_F(Fig2Test, UnpoisonRestoresOriginalRoutes) {
  announce_and_converge();
  remediator_.poison(topo_.a);
  sched_.run();
  remediator_.unpoison();
  sched_.run();

  ASSERT_NE(route_of(topo_.a), nullptr);
  ASSERT_NE(route_of(topo_.e), nullptr);
  EXPECT_EQ(route_of(topo_.e)->neighbor, topo_.a);
  ASSERT_NE(route_of(topo_.f), nullptr);
  EXPECT_EQ(route_of(topo_.f)->neighbor, topo_.a);
}

TEST_F(Fig2Test, PoisonOnlyAffectsTheProductionPrefix) {
  announce_and_converge();
  // Snapshot every AS's sentinel route.
  std::vector<std::pair<topo::AsId, bgp::PathRef>> before;
  for (const auto as : topo_.graph.as_ids()) {
    if (const auto* r = sentinel_route_of(as)) before.emplace_back(as, r->path);
  }
  remediator_.poison(topo_.a);
  sched_.run();
  for (const auto& [as, path] : before) {
    const auto* after = sentinel_route_of(as);
    ASSERT_NE(after, nullptr) << "AS " << as << " lost its sentinel route";
    EXPECT_EQ(after->path, path) << "sentinel path changed at AS " << as;
  }
}

TEST_F(Fig2Test, CaptiveLosesEverythingWithoutSentinel) {
  // Ablation: disable the sentinel and verify F is fully cut off — the
  // motivation for announcing the less-specific (§3.1.2).
  core::Remediator bare(engine_, topo_.o,
                        core::RemediatorConfig{.use_sentinel = false});
  bare.announce_baseline();
  sched_.run();
  bare.poison(topo_.a);
  sched_.run();
  const auto fib = engine_.speaker(topo_.f).fib_lookup(
      topo::AddressPlan::production_host(topo_.o));
  EXPECT_FALSE(fib.has_route);
}

TEST_F(Fig2Test, LoopThresholdTwoRequiresDoublePoison) {
  // §7.1: an AS accepting one occurrence of its own ASN ignores a single
  // poison; inserting it twice forces the drop.
  engine_.speaker(topo_.a).mutable_config().loop_threshold = 2;
  announce_and_converge();
  remediator_.poison(topo_.a);
  sched_.run();
  ASSERT_NE(route_of(topo_.a), nullptr)
      << "single poison should NOT remove the route at threshold 2";
  remediator_.poison_path({topo_.a, topo_.a});
  sched_.run();
  EXPECT_EQ(route_of(topo_.a), nullptr);
}

TEST_F(Fig2Test, DisabledLoopDetectionDefeatsPoisoning) {
  engine_.speaker(topo_.a).mutable_config().loop_detection_disabled = true;
  announce_and_converge();
  remediator_.poison(topo_.a);
  sched_.run();
  EXPECT_NE(route_of(topo_.a), nullptr);
}

TEST_F(Fig2Test, PeerFilterBlocksPoisonedTier1Paths) {
  // Cogent-style import policy at C: reject customer-learned routes whose
  // path contains one of C's peers (A is C's peer).
  engine_.speaker(topo_.c)
      .mutable_config()
      .reject_customer_routes_containing_my_peers = true;
  announce_and_converge();
  ASSERT_NE(route_of(topo_.c), nullptr);

  remediator_.poison(topo_.a);
  sched_.run();
  // C's customer B now advertises B-O-A-O which contains C's peer A: C drops
  // it. C's alternative is the peer route from A... which A no longer has.
  EXPECT_EQ(route_of(topo_.c), nullptr);
  // And D behind C is collateral damage on the production prefix.
  EXPECT_EQ(route_of(topo_.d), nullptr);
}

}  // namespace
}  // namespace lg
