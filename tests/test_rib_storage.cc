// The Internet-scale RIB storage refactor, checked from the outside: interned
// CommunitiesRef semantics, the tag-encoded Adj-RIB-Out (adj_out_state /
// adj_out_unit / record_advertised), delta-encoded export sharing, the
// deterministic rib_memory() accounting — and, as the load-bearing proof,
// a full differential against check::ReferenceBgp plus an InvariantChecker
// sweep on an internet-scale synthetic graph.
#include <gtest/gtest.h>

#include <set>

#include "bgp/engine.h"
#include "bgp/speaker.h"
#include "check/invariants.h"
#include "check/reference_bgp.h"
#include "topology/addressing.h"
#include "topology/generator.h"
#include "util/scheduler.h"

namespace lg {
namespace {

using bgp::AsPath;
using bgp::BgpSpeaker;
using bgp::CommunitiesRef;
using bgp::Communities;
using topo::AsId;
using topo::Prefix;

// ---- CommunitiesRef interning ------------------------------------------

TEST(CommunitiesRefTest, DefaultIsEmptyAndShared) {
  const CommunitiesRef a;
  const CommunitiesRef b;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a, b);
  // Both alias the static empty set: equality is a pointer compare.
  EXPECT_EQ(&a.get(), &b.get());
}

TEST(CommunitiesRefTest, SharesBufferAcrossCopies) {
  const CommunitiesRef a(Communities{1, 2, 3});
  const CommunitiesRef b = a;  // ref copy, no buffer copy
  EXPECT_EQ(&a.get(), &b.get());
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b[1], 2u);
}

TEST(CommunitiesRefTest, ContentEqualityAcrossDistinctBuffers) {
  const CommunitiesRef a(Communities{7, 8});
  const CommunitiesRef b(Communities{7, 8});
  const CommunitiesRef c(Communities{7, 9});
  EXPECT_NE(&a.get(), &b.get());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, (Communities{7, 8}));
}

// ---- Adj-RIB-Out tag encoding ------------------------------------------

// Speakers come from an engine, which owns their adjacency; nothing here
// runs the scheduler, so each test drives one speaker directly.
class AdjOutTest : public ::testing::Test {
 protected:
  AdjOutTest()
      : topo_(topo::make_fig2_topology()), engine_(topo_.graph, sched_) {}

  topo::Fig2Topology topo_;
  util::Scheduler sched_;
  bgp::BgpEngine engine_;
};

TEST_F(AdjOutTest, FreshSpeakerIsNeverAdvertised) {
  BgpSpeaker& sp = engine_.speaker(topo_.b);
  const Prefix p = topo::AddressPlan::production_prefix(topo_.o);
  EXPECT_EQ(sp.adj_out_state(p, topo_.a),
            BgpSpeaker::AdjOutState::kNeverAdvertised);
  EXPECT_FALSE(sp.adj_out_unit(p, topo_.a).has_value());
}

TEST_F(AdjOutTest, RecordAdvertisedRoundTrips) {
  BgpSpeaker& sp = engine_.speaker(topo_.b);
  const Prefix p = topo::AddressPlan::production_prefix(topo_.o);
  BgpSpeaker::ExportUnit unit{AsPath{topo_.b, topo_.o},
                              Communities{42},
                              bgp::AvoidHint{topo_.a, std::nullopt}};
  sp.record_advertised(p, topo_.a, unit);
  EXPECT_EQ(sp.adj_out_state(p, topo_.a), BgpSpeaker::AdjOutState::kAdvertised);
  const auto got = sp.adj_out_unit(p, topo_.a);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, unit);
  // Other sessions are untouched.
  EXPECT_EQ(sp.adj_out_state(p, topo_.c),
            BgpSpeaker::AdjOutState::kNeverAdvertised);
}

TEST_F(AdjOutTest, RecordingNulloptMeansWithdrawn) {
  BgpSpeaker& sp = engine_.speaker(topo_.b);
  const Prefix p = topo::AddressPlan::production_prefix(topo_.o);
  sp.record_advertised(p, topo_.a,
                       BgpSpeaker::ExportUnit{AsPath{topo_.b, topo_.o}, {}, {}});
  sp.record_advertised(p, topo_.a, std::nullopt);
  // Withdrawn is distinct from never-advertised: the engine must not send a
  // withdrawal on a session that never saw the prefix, but must on this one.
  EXPECT_EQ(sp.adj_out_state(p, topo_.a), BgpSpeaker::AdjOutState::kWithdrawn);
  EXPECT_FALSE(sp.adj_out_unit(p, topo_.a).has_value());
}

TEST_F(AdjOutTest, ExportUnitsShareOnePrependedBuffer) {
  // Delta encoding: after convergence every kAdvertised slot for a
  // re-exported route aliases the speaker's single per-prefix export cache.
  util::Scheduler sched;
  bgp::BgpEngine engine(topo_.graph, sched);
  const Prefix p = topo::AddressPlan::production_prefix(topo_.o);
  bgp::OriginPolicy policy;
  policy.default_path = AsPath{topo_.o};
  engine.originate(topo_.o, p, policy);
  sched.run();

  const BgpSpeaker& b = engine.speaker(topo_.b);
  std::set<const bgp::AsPath*> buffers;
  std::size_t advertised = 0;
  for (const auto& n : topo_.graph.neighbors(topo_.b)) {
    if (b.adj_out_state(p, n.id) != BgpSpeaker::AdjOutState::kAdvertised) {
      continue;
    }
    ++advertised;
    buffers.insert(&b.adj_out_unit(p, n.id)->path.get());
  }
  ASSERT_GE(advertised, 2u) << "fig2 B re-exports to several neighbors";
  EXPECT_EQ(buffers.size(), 1u) << "all Adj-RIB-Out slots share one buffer";
}

// ---- rib_memory accounting ---------------------------------------------

TEST_F(AdjOutTest, RibMemoryCountsRoutesAndBytes) {
  util::Scheduler sched;
  bgp::BgpEngine engine(topo_.graph, sched);
  const Prefix p = topo::AddressPlan::production_prefix(topo_.o);
  bgp::OriginPolicy policy;
  policy.default_path = AsPath{topo_.o};
  engine.originate(topo_.o, p, policy);
  sched.run();

  const auto before = engine.rib_memory();
  EXPECT_GT(before.bytes, 0u);
  EXPECT_GT(before.routes, 0u);
  EXPECT_GT(before.adj_out_slots, 0u);
  EXPECT_GE(before.prefix_states, topo_.graph.num_ases());

  // Per-speaker parts sum to the totals (minus engine-side tables).
  std::size_t routes = 0;
  for (const AsId as : topo_.graph.as_ids()) {
    routes += engine.speaker(as).rib_memory().routes;
  }
  EXPECT_EQ(routes, before.routes);

  // A second prefix strictly grows the accounting.
  engine.originate(topo_.o, topo::AddressPlan::sentinel_prefix(topo_.o),
                   policy);
  sched.run();
  const auto after = engine.rib_memory();
  EXPECT_GT(after.bytes, before.bytes);
  EXPECT_GT(after.routes, before.routes);
}

// ---- Differential + invariants at internet-scale shape ------------------

// ~600 ASes with the internet-scale generator's wiring (preferential
// attachment, peering, multihoming) — big enough to exercise every storage
// path (lazy sizing, sparse hints, withdraw-and-reannounce, damping off).
class InternetScaleDifferentialTest : public ::testing::Test {
 protected:
  InternetScaleDifferentialTest()
      : topo_(topo::generate_internet_scale({.total_ases = 600,
                                             .num_tier1 = 6,
                                             .seed = 911})),
        engine_(topo_.graph, sched_),
        ref_(topo_.graph) {}

  void originate_both(AsId as, const Prefix& prefix,
                      const bgp::OriginPolicy& policy) {
    engine_.originate(as, prefix, policy);
    ref_.originate(as, prefix, policy);
  }

  void converge_and_compare(const std::vector<Prefix>& prefixes) {
    sched_.run();
    ASSERT_TRUE(sched_.empty());
    for (const AsId id : topo_.graph.as_ids()) {
      ref_.config(id) = engine_.speaker(id).config();
    }
    ASSERT_TRUE(ref_.solve(512)) << "reference did not stabilize";
    for (const Prefix& p : prefixes) {
      for (const AsId as : topo_.graph.as_ids()) {
        const bgp::Route* got = engine_.best_route(as, p);
        const check::RefRoute* want = ref_.best_route(as, p);
        ASSERT_EQ(got == nullptr, want == nullptr)
            << "presence mismatch at AS " << as << " for " << p.str();
        if (got == nullptr) continue;
        ASSERT_EQ(got->path, want->path) << "path mismatch at AS " << as;
        ASSERT_EQ(got->neighbor, want->neighbor)
            << "neighbor mismatch at AS " << as;
        ASSERT_EQ(got->communities, want->communities)
            << "communities mismatch at AS " << as;
      }
    }
    const auto violations = check::InvariantChecker(engine_).check_all();
    EXPECT_TRUE(violations.empty())
        << violations.size() << " violations, first: "
        << (violations.empty() ? "" : violations.front().detail);
  }

  topo::GeneratedTopology topo_;
  util::Scheduler sched_;
  bgp::BgpEngine engine_;
  check::ReferenceBgp ref_;
};

TEST_F(InternetScaleDifferentialTest, PlainOriginationAgrees) {
  ASSERT_FALSE(topo_.stubs.empty());
  const AsId origin = topo_.stubs.front();
  const Prefix p = topo::AddressPlan::production_prefix(origin);
  bgp::OriginPolicy policy;
  policy.default_path = AsPath{origin};
  policy.communities = Communities{100, 200};
  originate_both(origin, p, policy);
  converge_and_compare({p});
}

TEST_F(InternetScaleDifferentialTest, PoisonedAndHintedOriginationsAgree) {
  ASSERT_GE(topo_.stubs.size(), 2u);
  const AsId origin = topo_.stubs.front();
  const AsId other = topo_.stubs.back();
  const Prefix p1 = topo::AddressPlan::production_prefix(origin);
  const Prefix p2 = topo::AddressPlan::production_prefix(other);

  // Poison the origin's first provider: O-X-O routes around X.
  const AsId poisoned = topo_.graph.providers(origin).front();
  bgp::OriginPolicy poison;
  poison.default_path = bgp::poisoned_path(origin, {poisoned}, 3);
  originate_both(origin, p1, poison);

  // Second origin attaches an AVOID_PROBLEM hint (sparse hint tables).
  bgp::OriginPolicy hinted;
  hinted.default_path = AsPath{other};
  hinted.avoid_hint = bgp::AvoidHint{topo_.graph.providers(other).front(),
                                     std::nullopt};
  originate_both(other, p2, hinted);
  converge_and_compare({p1, p2});
}

TEST_F(InternetScaleDifferentialTest, WithdrawReannounceAgrees) {
  const AsId origin = topo_.stubs.front();
  const Prefix p = topo::AddressPlan::production_prefix(origin);
  bgp::OriginPolicy policy;
  policy.default_path = AsPath{origin};
  originate_both(origin, p, policy);
  sched_.run();
  engine_.withdraw(origin, p);
  ref_.withdraw(origin, p);
  sched_.run();
  // Re-announce with a prepended path: exercises kWithdrawn -> kAdvertised.
  bgp::OriginPolicy prepended;
  prepended.default_path = AsPath{origin, origin, origin};
  originate_both(origin, p, prepended);
  converge_and_compare({p});
}

}  // namespace
}  // namespace lg
