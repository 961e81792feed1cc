// BGP engine mechanics: propagation, withdrawal, MRAI batching, split
// horizon, export policy, counters, observer plumbing, and per-(session,
// prefix) delivery order.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bgp/collector.h"
#include "bgp/engine.h"
#include "check/audit.h"
#include "check/invariants.h"
#include "check/reference_bgp.h"
#include "obs/metrics.h"
#include "topology/addressing.h"
#include "topology/generator.h"
#include "topology/io.h"
#include "util/hashing.h"
#include "util/scheduler.h"

namespace lg {
namespace {

using bgp::AsPath;
using topo::AsId;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : topo_(topo::make_fig2_topology()), engine_(topo_.graph, sched_) {}

  topo::Prefix originate_default(AsId as) {
    const auto prefix = topo::AddressPlan::production_prefix(as);
    bgp::OriginPolicy policy;
    policy.default_path = AsPath{as};
    engine_.originate(as, prefix, policy);
    return prefix;
  }

  ~EngineTest() override {
    // Opt-in audit of whatever state the test ended in, when quiesced.
    if (sched_.empty()) check::maybe_audit(engine_, "EngineTest teardown");
  }

  topo::Fig2Topology topo_;
  util::Scheduler sched_;
  bgp::BgpEngine engine_;
};

TEST_F(EngineTest, AnnouncementReachesEveryAs) {
  const auto prefix = originate_default(topo_.o);
  sched_.run();
  for (const AsId as : topo_.graph.as_ids()) {
    if (as == topo_.o) continue;
    EXPECT_NE(engine_.best_route(as, prefix), nullptr) << "AS " << as;
  }
}

TEST_F(EngineTest, EveryPathIsLoopFree) {
  const auto prefix = originate_default(topo_.o);
  sched_.run();
  for (const AsId as : topo_.graph.as_ids()) {
    if (const auto* r = engine_.best_route(as, prefix)) {
      EXPECT_EQ(bgp::count_occurrences(r->path, as), 0u);
      // No duplicates at all in honest (non-crafted) paths.
      // A copy: paths are shared and immutable.
      bgp::AsPath sorted(r->path.begin(), r->path.end());
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
    }
  }
}

TEST_F(EngineTest, WithdrawRemovesAllRoutes) {
  const auto prefix = originate_default(topo_.o);
  sched_.run();
  engine_.withdraw(topo_.o, prefix);
  sched_.run();
  for (const AsId as : topo_.graph.as_ids()) {
    EXPECT_EQ(engine_.best_route(as, prefix), nullptr) << "AS " << as;
  }
}

TEST_F(EngineTest, ValleyFreeExportPolicyHolds) {
  // Peer/provider routes must never be exported to peers or providers:
  // check every selected path is valley-free against the relationship graph.
  const auto prefix = originate_default(topo_.o);
  sched_.run();
  for (const AsId as : topo_.graph.as_ids()) {
    const auto* r = engine_.best_route(as, prefix);
    if (r == nullptr) continue;
    // Walk the full path as->...->origin and check the valley-free shape:
    // once we traverse a peer or customer->provider... build the traversal
    // from the receiver's perspective: as -> path[0] -> path[1] -> ...
    std::vector<AsId> walk;
    walk.push_back(as);
    for (const AsId hop : r->path) {
      if (walk.back() != hop) walk.push_back(hop);
    }
    bool descending = false;
    for (std::size_t i = 0; i + 1 < walk.size(); ++i) {
      const auto rel = topo_.graph.relationship(walk[i], walk[i + 1]);
      ASSERT_TRUE(rel.has_value())
          << "non-adjacent hop " << walk[i] << "->" << walk[i + 1];
      if (descending) {
        EXPECT_EQ(*rel, topo::Rel::kCustomer)
            << "valley in path at " << walk[i] << "->" << walk[i + 1];
      } else if (*rel != topo::Rel::kProvider) {
        descending = true;  // peer or customer edge: must descend after
      }
    }
  }
}

TEST_F(EngineTest, MraiBatchesRapidChanges) {
  const auto prefix = originate_default(topo_.o);
  sched_.run();
  engine_.reset_counters();

  // Rapid-fire policy churn at the origin: three changes within one MRAI
  // window. Neighbors should see far fewer messages than naive flooding.
  for (int i = 0; i < 3; ++i) {
    bgp::OriginPolicy policy;
    policy.default_path = AsPath(static_cast<std::size_t>(1 + i), topo_.o);
    engine_.originate(topo_.o, prefix, policy);
    sched_.run(sched_.now() + 1.0);
  }
  sched_.run();
  // First change sends immediately; the second and third collapse into one
  // MRAI-deferred update per neighbor. O has one neighbor (B): <= 2 sends.
  EXPECT_LE(engine_.messages_sent_by(topo_.o), 2u);
}

TEST_F(EngineTest, ObserverSeesBestRouteChanges) {
  bgp::RouteCollector collector;
  collector.monitor_as(topo_.e);
  engine_.add_observer(&collector);
  const auto prefix = originate_default(topo_.o);
  sched_.run();
  ASSERT_FALSE(collector.events().empty());
  for (const auto& ev : collector.events()) {
    EXPECT_EQ(ev.as, topo_.e);
    EXPECT_EQ(ev.prefix, prefix);
  }
  const auto final_route = collector.final_route(topo_.e, prefix);
  ASSERT_TRUE(final_route.has_value());
  EXPECT_EQ(final_route->path, engine_.best_route(topo_.e, prefix)->path);
  engine_.remove_observer(&collector);
}

TEST_F(EngineTest, CollectorConvergenceAnalytics) {
  bgp::RouteCollector collector;
  engine_.add_observer(&collector);
  const auto prefix = originate_default(topo_.o);
  sched_.run();

  // Single announcement: every AS that got a route did so with >= 1 update.
  for (const AsId as : topo_.graph.as_ids()) {
    if (as == topo_.o) continue;
    EXPECT_GE(collector.update_count(as, prefix, 0.0), 1u);
    EXPECT_TRUE(collector.convergence_time(as, prefix, 0.0).has_value());
  }
  // Unknown AS has no convergence data.
  EXPECT_FALSE(collector.convergence_time(9999, prefix, 0.0).has_value());
  engine_.remove_observer(&collector);
}

TEST_F(EngineTest, SplitHorizonNoEchoToLearnedNeighbor) {
  const auto prefix = originate_default(topo_.o);
  sched_.run();
  // B learned the prefix from O; B's export back to O must be empty.
  EXPECT_FALSE(engine_.speaker(topo_.b).export_path(prefix, topo_.o));
}

TEST_F(EngineTest, PeerRouteNotExportedToProvider) {
  const auto prefix = originate_default(topo_.o);
  sched_.run();
  // C's best is via customer B, exportable everywhere. Force the check on
  // A: A's best is via customer B too. E is A's customer: exportable.
  EXPECT_TRUE(engine_.speaker(topo_.a).export_path(prefix, topo_.e));
  // Now consider E: its best is via provider A; E has no customers, and
  // must not export a provider route to provider D.
  EXPECT_FALSE(engine_.speaker(topo_.e).export_path(prefix, topo_.d));
}

TEST_F(EngineTest, FibPrefersMoreSpecificAcrossOrigins) {
  // O announces its production /24; a second origin announces a covering
  // /23 (hypothetical aggregation): more specific must win at every AS.
  const auto prod = originate_default(topo_.o);
  const auto sentinel = topo::AddressPlan::sentinel_prefix(topo_.o);
  bgp::OriginPolicy policy;
  policy.default_path = AsPath{topo_.o};
  engine_.originate(topo_.o, sentinel, policy);
  sched_.run();
  const auto host = topo::AddressPlan::production_host(topo_.o);
  for (const AsId as : topo_.graph.as_ids()) {
    if (as == topo_.o) continue;
    const auto fib = engine_.speaker(as).fib_lookup(host);
    ASSERT_TRUE(fib.has_route) << "AS " << as;
    EXPECT_EQ(fib.matched, prod) << "AS " << as;
  }
}

TEST_F(EngineTest, DefaultRouteFallback) {
  auto& f = engine_.speaker(topo_.f);
  f.mutable_config().has_default_route = true;
  // No announcements at all: F still forwards via its provider A.
  const auto fib = f.fib_lookup(topo::AddressPlan::production_host(topo_.o));
  ASSERT_TRUE(fib.has_route);
  EXPECT_TRUE(fib.via_default);
  EXPECT_EQ(fib.next_hop, topo_.a);
}

TEST_F(EngineTest, SelectiveAnnouncementWithholdsPerNeighbor) {
  // E multihomed to A and D: withhold from A, so E's inbound routes all
  // come via D (classic selective advertising, §2.3).
  const auto prefix = topo::AddressPlan::production_prefix(topo_.e);
  bgp::OriginPolicy policy;
  policy.default_path = AsPath{topo_.e};
  policy.per_neighbor[topo_.a] = std::nullopt;
  engine_.originate(topo_.e, prefix, policy);
  sched_.run();
  const auto* route_at_a = engine_.best_route(topo_.a, prefix);
  ASSERT_NE(route_at_a, nullptr);  // A still learns it transitively
  EXPECT_NE(route_at_a->neighbor, topo_.e);
}

TEST_F(EngineTest, CountersResetCleanly) {
  originate_default(topo_.o);
  sched_.run();
  EXPECT_GT(engine_.total_messages(), 0u);
  engine_.reset_counters();
  EXPECT_EQ(engine_.total_messages(), 0u);
  EXPECT_EQ(engine_.messages_sent_by(topo_.b), 0u);
  EXPECT_EQ(engine_.best_changes_of(topo_.b), 0u);
}

TEST_F(EngineTest, UnknownSpeakerThrows) {
  EXPECT_THROW(engine_.speaker(4242), std::out_of_range);
}

TEST_F(EngineTest, ResetCountersZeroesObsCounters) {
  // The engine in this fixture resolved its lg.bgp.* handles against the
  // registry current at construction (the global one here). reset_counters()
  // must zero those alongside the engine-local tallies, so a post-reset run
  // report covers only the post-reset phase.
  auto& reg = obs::MetricsRegistry::current();
  const auto prefix = originate_default(topo_.o);
  sched_.run();
  ASSERT_GT(engine_.total_messages(), 0u);
  ASSERT_GT(reg.counter("lg.bgp.updates_sent").value(), 0u);
  ASSERT_GT(reg.counter("lg.bgp.updates_delivered").value(), 0u);

  engine_.reset_counters();
  EXPECT_EQ(engine_.total_messages(), 0u);
  EXPECT_EQ(reg.counter("lg.bgp.updates_sent").value(), 0u);
  EXPECT_EQ(reg.counter("lg.bgp.announces_sent").value(), 0u);
  EXPECT_EQ(reg.counter("lg.bgp.withdrawals_sent").value(), 0u);
  EXPECT_EQ(reg.counter("lg.bgp.updates_delivered").value(), 0u);
  EXPECT_EQ(reg.counter("lg.bgp.mrai_deferrals").value(), 0u);
  EXPECT_EQ(reg.counter("lg.bgp.best_path_changes").value(), 0u);

  // Counters keep counting after the reset (handles stayed valid).
  engine_.withdraw(topo_.o, prefix);
  sched_.run();
  EXPECT_GT(reg.counter("lg.bgp.updates_sent").value(), 0u);
  EXPECT_EQ(reg.counter("lg.bgp.updates_sent").value(),
            engine_.total_messages());
}

// Regression: at an MRAI below the link delay, consecutive updates on one
// session are in flight together. A newer update used to arrive first and
// be overwritten by the older one, so at quiescence the receiver's RIB-in
// disagreed with the sender's Adj-RIB-Out. Deliveries on a (session,
// prefix) now keep send order at any MRAI, with no fault plane involved.
TEST(DeliveryOrderTest, SubLinkDelayMraiKeepsAdjOutConsistent) {
  const topo::Fig2Topology topo = topo::make_fig2_topology();
  const topo::Prefix prefix = topo::AddressPlan::production_prefix(topo.o);
  const std::vector<AsPath> paths = {
      AsPath{topo.o},
      bgp::poisoned_path(topo.o, {topo.a}, 3),
      AsPath{topo.o, topo.o, topo.o},
      AsPath{topo.o},
  };
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    util::Scheduler sched;
    bgp::EngineConfig ec;
    ec.default_mrai = 0.0;
    ec.seed = seed;
    bgp::BgpEngine engine(topo.graph, sched, ec);
    for (std::size_t i = 0; i < paths.size(); ++i) {
      sched.at(1.0 + 0.002 * static_cast<double>(i),
               [&engine, &topo, prefix, path = paths[i]] {
                 bgp::OriginPolicy policy;
                 policy.default_path = path;
                 engine.originate(topo.o, prefix, policy);
               });
    }
    sched.run();
    ASSERT_TRUE(sched.empty());
    std::vector<check::Violation> out;
    check::InvariantChecker(engine).check_adj_out_consistency(out);
    for (const auto& v : out) {
      ADD_FAILURE() << "seed " << seed << " [" << v.invariant << "] "
                    << v.detail;
    }
  }
}

// Real ASNs span far more ids than the graph has ASes (4200000001 - 174
// against 12 ASes), so id -> index lookups take the hashed path rather than
// the direct-mapped one generated topologies use. The relationship lines are
// deliberately out of order. Two stubs originate (one poisoning a transit);
// the converged state must match the reference fixpoint, pass every
// invariant, and hash to the pinned digest of ids, adjacency and RIBs.
TEST(BgpEngineTest, SparseAsnGraphMatchesReference) {
  const topo::AsGraph graph = topo::from_caida(
      "4200000000|4200000001|-1\n"
      "6939|64512|-1\n"
      "174|3356|0\n"
      "1299|13335|-1\n"
      "64512|396982|-1\n"
      "3356|2914|-1\n"
      "174|1299|-1\n"
      "4200000000|4259840000|-1\n"
      "3356|6939|0\n"
      "64512|4200000000|-1\n"
      "174|65010|-1\n"
      "1299|64512|0\n"
      "3356|1299|-1\n"
      "6939|4259840000|-1\n"
      "174|6939|0\n"
      "64512|65010|-1\n"
      "1299|4200000000|-1\n");
  ASSERT_EQ(graph.num_ases(), 12u);
  ASSERT_FALSE(graph.validate().has_value());

  util::Scheduler sched;
  bgp::BgpEngine engine(graph, sched);
  check::ReferenceBgp ref(graph);
  const topo::Prefix p1(0xC6336400u, 24);  // 198.51.100.0/24
  const topo::Prefix p2(0xCB007100u, 24);  // 203.0.113.0/24
  bgp::OriginPolicy poisoned;
  poisoned.default_path = bgp::poisoned_path(4200000001u, {64512}, 3);
  bgp::OriginPolicy plain;
  plain.default_path = AsPath{13335};
  engine.originate(4200000001u, p1, poisoned);
  ref.originate(4200000001u, p1, poisoned);
  engine.originate(13335, p2, plain);
  ref.originate(13335, p2, plain);
  sched.run();
  ASSERT_TRUE(sched.empty());
  ASSERT_TRUE(ref.solve());

  std::ostringstream out;
  for (const AsId as : graph.as_ids()) {
    out << as << ":";
    for (const topo::Neighbor& n : graph.neighbors(as)) {
      out << " " << n.id << topo::rel_name(n.rel);
    }
    out << "\n";
    for (const topo::Prefix& p : {p1, p2}) {
      const bgp::Route* got = engine.best_route(as, p);
      const check::RefRoute* want = ref.best_route(as, p);
      ASSERT_EQ(got == nullptr, want == nullptr)
          << "presence mismatch at AS " << as << " for " << p.str();
      if (got != nullptr) {
        EXPECT_EQ(got->path, want->path) << "path mismatch at AS " << as;
        EXPECT_EQ(got->neighbor, want->neighbor)
            << "neighbor mismatch at AS " << as;
      }
      for (const bgp::Route& r : engine.speaker(as).rib_in(p)) {
        out << "  " << p.str() << " via " << r.neighbor << " ["
            << bgp::path_str(r.path) << "]\n";
      }
    }
  }
  const auto violations = check::InvariantChecker(engine).check_all();
  for (const auto& v : violations) {
    ADD_FAILURE() << "[" << v.invariant << "] " << v.detail;
  }
  // The poison reaches its target: 64512 holds no route to p1.
  EXPECT_EQ(engine.best_route(64512, p1), nullptr);
  EXPECT_EQ(util::fnv1a(out.str()), 0xc82f407c2b7df70eULL) << out.str();
}

// An observer may originate from on_route_change while the pump still holds
// the receiver's prefix states for the frontier it is finishing. O's two
// prefixes reach B in one frontier (a fixed link delay puts both sends in
// the same quantum); from the first notification the observer originates a
// third prefix at B, which gives B a new state before the pump exports the
// other two. Those states must survive it: storing a speaker's states in
// one flat array would move them and leave the pump a dangling pointer.
TEST(BgpEngineTest, ObserverOriginatingMidFrontierKeepsTouchedStates) {
  const topo::Fig2Topology topo = topo::make_fig2_topology();
  bgp::EngineConfig ec;
  ec.link_delay_min = 0.01;
  ec.link_delay_max = 0.01;
  util::Scheduler sched;
  bgp::BgpEngine engine(topo.graph, sched, ec);
  check::ReferenceBgp ref(topo.graph);

  const topo::Prefix p1 = topo::AddressPlan::production_prefix(topo.o);
  const topo::Prefix p2 = topo::AddressPlan::sentinel_prefix(topo.o);
  const topo::Prefix p3 = topo::AddressPlan::production_prefix(topo.b);
  bgp::OriginPolicy from_o;
  from_o.default_path = AsPath{topo.o};
  bgp::OriginPolicy from_b;
  from_b.default_path = AsPath{topo.b};

  struct Originator : bgp::RouteObserver {
    bgp::BgpEngine* engine = nullptr;
    AsId at = topo::kInvalidAs;
    topo::Prefix prefix;
    bgp::OriginPolicy policy;
    int fired = 0;
    void on_route_change(const bgp::RouteEvent& ev) override {
      if (fired++ == 0 && ev.as == at) engine->originate(at, prefix, policy);
    }
  } originator;
  originator.engine = &engine;
  originator.at = topo.b;
  originator.prefix = p3;
  originator.policy = from_b;
  engine.add_observer(&originator);

  engine.originate(topo.o, p1, from_o);
  engine.originate(topo.o, p2, from_o);
  ref.originate(topo.o, p1, from_o);
  ref.originate(topo.o, p2, from_o);
  ref.originate(topo.b, p3, from_b);
  sched.run();
  engine.remove_observer(&originator);
  ASSERT_TRUE(sched.empty());
  ASSERT_TRUE(engine.speaker(topo.b).originates(p3))
      << "the first route change was not B's";
  ASSERT_TRUE(ref.solve());

  for (const auto& v : check::InvariantChecker(engine).check_all()) {
    ADD_FAILURE() << "[" << v.invariant << "] " << v.detail;
  }
  for (const AsId as : topo.graph.as_ids()) {
    for (const topo::Prefix& p : {p1, p2, p3}) {
      const bgp::Route* got = engine.best_route(as, p);
      const check::RefRoute* want = ref.best_route(as, p);
      ASSERT_EQ(got == nullptr, want == nullptr)
          << "presence mismatch at AS " << as << " for " << p.str();
      if (got != nullptr) {
        EXPECT_EQ(got->path, want->path) << "path mismatch at AS " << as;
        EXPECT_EQ(got->neighbor, want->neighbor)
            << "neighbor mismatch at AS " << as;
      }
    }
  }
}

// The constructor rejects what the pump cannot model: a zero quantum would
// put every update in one bucket (undefined behaviour on the way), a zero
// link delay lets an export land in the frontier being pumped. Coarse
// quanta and every MRAI the benches and the fuzzer use still construct.
TEST(BgpEngineTest, RejectsConfigItCannotModel) {
  const topo::Fig2Topology topo = topo::make_fig2_topology();
  util::Scheduler sched;
  const auto builds = [&](const bgp::EngineConfig& ec) {
    bgp::BgpEngine engine(topo.graph, sched, ec);
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const struct {
    const char* name;
    double bgp::EngineConfig::*field;
    std::vector<double> bad;
  } cases[] = {
      {"pump_quantum", &bgp::EngineConfig::pump_quantum,
       {0.0, -0.005, kInf, kNaN}},
      {"link_delay_min", &bgp::EngineConfig::link_delay_min,
       {0.0, -0.01, kInf, kNaN}},
      {"link_delay_max", &bgp::EngineConfig::link_delay_max,
       {0.005, 0.0, kInf, kNaN}},
      {"mrai_jitter_frac", &bgp::EngineConfig::mrai_jitter_frac,
       {-0.01, 1.5, kNaN}},
      {"default_mrai", &bgp::EngineConfig::default_mrai, {-1.0, kInf, kNaN}},
  };
  for (const auto& c : cases) {
    for (const double v : c.bad) {
      bgp::EngineConfig ec;
      ec.*c.field = v;
      try {
        builds(ec);
        ADD_FAILURE() << c.name << " = " << v << " constructed";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(c.name), std::string::npos)
            << e.what();
      }
    }
  }

  EXPECT_NO_THROW(builds(bgp::EngineConfig{}));
  // The fuzzer's MRAI draws, then fig6's.
  for (const double mrai : {0.0, 0.001, 2.0, 10.0, 30.0, 5.0, 60.0}) {
    bgp::EngineConfig ec;
    ec.default_mrai = mrai;
    EXPECT_NO_THROW(builds(ec)) << "default_mrai = " << mrai;
  }
  bgp::EngineConfig edges;
  edges.pump_quantum = 1.0;  // coarser than any link delay, on purpose
  edges.link_delay_max = edges.link_delay_min;
  edges.mrai_jitter_frac = 1.0;
  EXPECT_NO_THROW(builds(edges));
  edges.mrai_jitter_frac = 0.0;
  EXPECT_NO_THROW(builds(edges));
}

}  // namespace
}  // namespace lg
