// lg::check — the correctness plane checked against itself:
//  * differential: bgp::BgpEngine's quiesced state equals the naive
//    synchronous ReferenceBgp fixpoint on the paper topologies, including
//    poisoning, loop-threshold variants, and selective announcements;
//  * invariants: the InvariantChecker is clean at every fixpoint and is NOT
//    vacuous — it fires on mid-convergence state and on a forced
//    loop-threshold violation;
//  * fuzzer: a 200-seed clean sweep and a faulty sweep agree with the
//    oracle on every seed, scenarios are deterministic, and a failing seed
//    replays via LG_CHECK_SEED.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "bgp/engine.h"
#include "check/audit.h"
#include "check/fuzzer.h"
#include "check/invariants.h"
#include "check/reference_bgp.h"
#include "topology/addressing.h"
#include "topology/generator.h"
#include "util/scheduler.h"

namespace lg {
namespace {

using bgp::AsPath;
using topo::AsId;
using topo::Prefix;

// Mirrors every speaker config into the reference so both sides run the
// same policies.
void mirror_configs(const bgp::BgpEngine& engine, const topo::AsGraph& graph,
                    check::ReferenceBgp& ref) {
  for (const AsId id : graph.as_ids()) {
    ref.config(id) = engine.speaker(id).config();
  }
}

// Asserts engine and reference agree on the best route of every AS for
// `prefix`.
void expect_agreement(const bgp::BgpEngine& engine,
                      const check::ReferenceBgp& ref,
                      const topo::AsGraph& graph, const Prefix& prefix) {
  for (const AsId as : graph.as_ids()) {
    const bgp::Route* got = engine.best_route(as, prefix);
    const check::RefRoute* want = ref.best_route(as, prefix);
    ASSERT_EQ(got == nullptr, want == nullptr)
        << "presence mismatch at AS " << as << " for " << prefix.str();
    if (got == nullptr) continue;
    EXPECT_EQ(got->path, want->path) << "path mismatch at AS " << as;
    EXPECT_EQ(got->neighbor, want->neighbor)
        << "neighbor mismatch at AS " << as;
  }
}

class DifferentialFig2Test : public ::testing::Test {
 protected:
  DifferentialFig2Test()
      : topo_(topo::make_fig2_topology()),
        engine_(topo_.graph, sched_),
        ref_(topo_.graph),
        production_(topo::AddressPlan::production_prefix(topo_.o)),
        sentinel_(topo::AddressPlan::sentinel_prefix(topo_.o)) {}

  void originate_both(const Prefix& prefix, const bgp::OriginPolicy& policy) {
    engine_.originate(topo_.o, prefix, policy);
    ref_.originate(topo_.o, prefix, policy);
  }

  void converge_both() {
    sched_.run();
    mirror_configs(engine_, topo_.graph, ref_);
    ASSERT_TRUE(ref_.solve()) << "reference did not stabilize";
    ASSERT_TRUE(sched_.empty()) << "engine did not quiesce";
  }

  topo::Fig2Topology topo_;
  util::Scheduler sched_;
  bgp::BgpEngine engine_;
  check::ReferenceBgp ref_;
  Prefix production_;
  Prefix sentinel_;
};

TEST_F(DifferentialFig2Test, BaselineFixpointsAgree) {
  bgp::OriginPolicy plain;
  plain.default_path = AsPath{topo_.o, topo_.o, topo_.o};
  originate_both(production_, plain);
  bgp::OriginPolicy sentinel_plain;
  sentinel_plain.default_path = AsPath{topo_.o};
  originate_both(sentinel_, sentinel_plain);
  converge_both();
  expect_agreement(engine_, ref_, topo_.graph, production_);
  expect_agreement(engine_, ref_, topo_.graph, sentinel_);
  // Sanity anchor against the paper's table: B hears the prepended baseline.
  ASSERT_NE(ref_.best_route(topo_.b, production_), nullptr);
  EXPECT_EQ(ref_.best_route(topo_.b, production_)->path,
            (AsPath{topo_.o, topo_.o, topo_.o}));
}

TEST_F(DifferentialFig2Test, PoisonedFixpointsAgree) {
  bgp::OriginPolicy poisoned;
  poisoned.default_path = bgp::poisoned_path(topo_.o, {topo_.a}, 3);
  originate_both(production_, poisoned);
  bgp::OriginPolicy sentinel_plain;
  sentinel_plain.default_path = AsPath{topo_.o};
  originate_both(sentinel_, sentinel_plain);
  converge_both();
  expect_agreement(engine_, ref_, topo_.graph, production_);
  expect_agreement(engine_, ref_, topo_.graph, sentinel_);
  // Both sides must drop A's route and keep the captive F empty.
  EXPECT_EQ(ref_.best_route(topo_.a, production_), nullptr);
  EXPECT_EQ(ref_.best_route(topo_.f, production_), nullptr);
}

TEST_F(DifferentialFig2Test, LoopThresholdTwoFixpointsAgree) {
  engine_.speaker(topo_.a).mutable_config().loop_threshold = 2;
  bgp::OriginPolicy poisoned;
  poisoned.default_path = bgp::poisoned_path(topo_.o, {topo_.a}, 3);
  originate_both(production_, poisoned);
  converge_both();
  expect_agreement(engine_, ref_, topo_.graph, production_);
  // A accepts the single occurrence of itself at threshold 2 — on both
  // sides, or the agreement above would already have failed.
  EXPECT_NE(ref_.best_route(topo_.a, production_), nullptr);
}

TEST_F(DifferentialFig2Test, PeerFilterFixpointsAgree) {
  engine_.speaker(topo_.c)
      .mutable_config()
      .reject_customer_routes_containing_my_peers = true;
  bgp::OriginPolicy poisoned;
  poisoned.default_path = bgp::poisoned_path(topo_.o, {topo_.a}, 3);
  originate_both(production_, poisoned);
  converge_both();
  expect_agreement(engine_, ref_, topo_.graph, production_);
  EXPECT_EQ(ref_.best_route(topo_.c, production_), nullptr);
}

TEST(DifferentialFig3Test, SelectiveAnnouncementFixpointsAgree) {
  auto topo = topo::make_fig3_topology();
  util::Scheduler sched;
  bgp::BgpEngine engine(topo.graph, sched);
  check::ReferenceBgp ref(topo.graph);
  const auto prefix = topo::AddressPlan::production_prefix(topo.o);
  // §3.1.2: withhold from D1, poison toward D2's side selectively.
  bgp::OriginPolicy policy;
  policy.default_path = AsPath{topo.o};
  policy.per_neighbor[topo.d1] = std::nullopt;  // withhold entirely
  engine.originate(topo.o, prefix, policy);
  ref.originate(topo.o, prefix, policy);
  sched.run();
  mirror_configs(engine, topo.graph, ref);
  ASSERT_TRUE(ref.solve());
  expect_agreement(engine, ref, topo.graph, prefix);
  // D1 can only learn the route the long way around, never directly.
  const auto* at_d1 = ref.best_route(topo.d1, prefix);
  if (at_d1 != nullptr) {
    EXPECT_NE(at_d1->neighbor, topo.o);
  }
}

TEST(InvariantCheckerTest, CleanAtFig2PoisonedFixpoint) {
  auto topo = topo::make_fig2_topology();
  util::Scheduler sched;
  bgp::BgpEngine engine(topo.graph, sched);
  const auto production = topo::AddressPlan::production_prefix(topo.o);
  const auto sentinel = topo::AddressPlan::sentinel_prefix(topo.o);
  bgp::OriginPolicy poisoned;
  poisoned.default_path = bgp::poisoned_path(topo.o, {topo.a}, 3);
  bgp::OriginPolicy plain;
  plain.default_path = AsPath{topo.o};
  engine.originate(topo.o, production, poisoned);
  engine.originate(topo.o, sentinel, plain);
  sched.run();
  const auto violations = check::InvariantChecker(engine).check_all();
  for (const auto& v : violations) {
    ADD_FAILURE() << "[" << v.invariant << "] " << v.detail;
  }
}

TEST(InvariantCheckerTest, DetectsMidConvergenceInconsistency) {
  // Updates sent but not yet delivered: Adj-RIB-Out and the neighbors'
  // Adj-RIB-In legitimately disagree, and the checker must say so — this is
  // what makes the adj-out audit non-vacuous (and why audits only run at
  // quiescence).
  auto topo = topo::make_fig2_topology();
  util::Scheduler sched;
  bgp::BgpEngine engine(topo.graph, sched);
  bgp::OriginPolicy plain;
  plain.default_path = AsPath{topo.o};
  engine.originate(topo.o, topo::AddressPlan::production_prefix(topo.o),
                   plain);
  ASSERT_GT(sched.pending(), 0u) << "no update in flight";
  std::vector<check::Violation> out;
  check::InvariantChecker(engine).check_adj_out_consistency(out);
  EXPECT_FALSE(out.empty());
}

TEST(InvariantCheckerTest, DetectsLoopViolationWhenThresholdTightens) {
  // Converge with A tolerating one occurrence of itself, then tighten the
  // threshold back to 1 post-convergence: the installed route now violates
  // A's own import filter and the loop audit must fire.
  auto topo = topo::make_fig2_topology();
  util::Scheduler sched;
  bgp::BgpEngine engine(topo.graph, sched);
  engine.speaker(topo.a).mutable_config().loop_threshold = 2;
  bgp::OriginPolicy poisoned;
  poisoned.default_path = bgp::poisoned_path(topo.o, {topo.a}, 3);
  engine.originate(topo.o, topo::AddressPlan::production_prefix(topo.o),
                   poisoned);
  sched.run();
  ASSERT_NE(engine.best_route(
                topo.a, topo::AddressPlan::production_prefix(topo.o)),
            nullptr);
  EXPECT_TRUE(check::InvariantChecker(engine).check_all().empty());
  engine.speaker(topo.a).mutable_config().loop_threshold = 1;
  std::vector<check::Violation> out;
  check::InvariantChecker(engine).check_loop_free(out);
  EXPECT_FALSE(out.empty());
}

TEST(InvariantCheckerTest, ReexportAtFixpointSendsNothing) {
  auto topo = topo::make_fig2_topology();
  util::Scheduler sched;
  bgp::BgpEngine engine(topo.graph, sched);
  bgp::OriginPolicy plain;
  plain.default_path = AsPath{topo.o, topo.o, topo.o};
  engine.originate(topo.o, topo::AddressPlan::production_prefix(topo.o),
                   plain);
  sched.run();
  const std::uint64_t before = engine.total_messages();
  engine.reexport_all();
  sched.run();
  EXPECT_EQ(engine.total_messages(), before);
}

TEST(AuditTest, MaybeAuditIsCleanOrDisabled) {
  auto topo = topo::make_fig2_topology();
  util::Scheduler sched;
  bgp::BgpEngine engine(topo.graph, sched);
  bgp::OriginPolicy plain;
  plain.default_path = AsPath{topo.o};
  engine.originate(topo.o, topo::AddressPlan::production_prefix(topo.o),
                   plain);
  sched.run();
  // 0 with LG_CHECK unset; the full audit count (without aborting) when the
  // suite runs under LG_CHECK=1.
  const std::size_t audited = check::maybe_audit(engine, "test_check");
  if (check::audit_enabled()) {
    EXPECT_EQ(audited, 8u);
  } else {
    EXPECT_EQ(audited, 0u);
  }
}

TEST(FuzzerTest, ScenariosAreDeterministic) {
  check::ScenarioOptions opt;
  opt.seed = 7;
  const auto a = check::run_scenario(opt);
  const auto b = check::run_scenario(opt);
  EXPECT_EQ(a.ases, b.ases);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.summary(), b.summary());
  opt.fault_intensity = 0.6;
  const auto fa = check::run_scenario(opt);
  const auto fb = check::run_scenario(opt);
  EXPECT_EQ(fa.summary(), fb.summary());
}

TEST(FuzzerTest, SweepCoversTopologyAndEventSpace) {
  std::set<std::size_t> as_counts;
  std::size_t total_events = 0;
  std::size_t max_events = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    check::ScenarioOptions opt;
    opt.seed = seed;
    const auto r = check::run_scenario(opt);
    as_counts.insert(r.ases);
    total_events += r.events;
    max_events = std::max(max_events, r.events);
  }
  // Topology sizes vary (tier1 2-3, large 3-5, small 2-7, stubs 6-17).
  EXPECT_GE(as_counts.size(), 5u);
  EXPECT_GE(*as_counts.begin(), 13u);
  EXPECT_LE(*as_counts.rbegin(), 32u);
  // Scripts are non-trivial: several events per scenario on average, and at
  // least one scenario exercising a long multi-op script.
  EXPECT_GE(total_events, 80u);
  EXPECT_GE(max_events, 6u);
}

// The acceptance-criterion sweep: engine and reference agree, and every
// invariant holds, on 200 consecutive clean seeds.
TEST(FuzzerTest, CleanSweepTwoHundredSeeds) {
  const auto summary = check::run_sweep(1, 200, 0.0);
  EXPECT_EQ(summary.runs, 200u);
  std::string seeds;
  for (const auto s : summary.failing_seeds) {
    seeds += " " + std::to_string(s);
  }
  EXPECT_TRUE(summary.ok()) << "failing seeds:" << seeds;
}

// Same judgment with the fault plane churning the control plane: loss,
// delay-reordering, and session resets must not change the fixpoint.
TEST(FuzzerTest, FaultySweepStillReachesTheCleanFixpoint) {
  const auto summary = check::run_sweep(10001, 30, 0.6);
  EXPECT_EQ(summary.runs, 30u);
  std::string seeds;
  for (const auto s : summary.failing_seeds) {
    seeds += " " + std::to_string(s);
  }
  EXPECT_TRUE(summary.ok()) << "failing seeds:" << seeds;
  // The sweep must actually have been perturbed, including updates held back
  // behind an older one on their session (the reordering hazard) — a sweep
  // where no fault ever fired proves nothing.
  std::uint64_t injected = 0;
  std::uint64_t held = 0;
  for (std::uint64_t seed = 10001; seed < 10031; ++seed) {
    check::ScenarioOptions opt;
    opt.seed = seed;
    opt.fault_intensity = 0.6;
    const auto r = check::run_scenario(opt);
    injected += r.faults_injected;
    held += r.updates_held;
  }
  EXPECT_GT(injected, 0u);
  EXPECT_GT(held, 0u);
}

TEST(FuzzerTest, ReplaySeedEnvRoundTrips) {
  const char* prior = std::getenv("LG_CHECK_SEED");
  ASSERT_EQ(::setenv("LG_CHECK_SEED", "31337", 1), 0);
  const auto seed = check::replay_seed_from_env();
  ASSERT_TRUE(seed.has_value());
  EXPECT_EQ(*seed, 31337u);
  if (prior != nullptr) {
    ::setenv("LG_CHECK_SEED", prior, 1);
  } else {
    ::unsetenv("LG_CHECK_SEED");
    EXPECT_FALSE(check::replay_seed_from_env().has_value());
  }
}

// When a sweep fails, it prints "replay with LG_CHECK_SEED=<seed>"; this
// test is the replay side: run exactly that seed, clean and faulty, with
// full diagnostics.
TEST(FuzzerTest, ReplaysSeedFromEnvironment) {
  const auto seed = check::replay_seed_from_env();
  if (!seed.has_value()) {
    GTEST_SKIP() << "LG_CHECK_SEED not set";
  }
  check::ScenarioOptions opt;
  opt.seed = *seed;
  const auto clean = check::run_scenario(opt);
  EXPECT_TRUE(clean.ok()) << clean.summary();
  opt.fault_intensity = 0.6;
  const auto faulty = check::run_scenario(opt);
  EXPECT_TRUE(faulty.ok()) << faulty.summary();
}

}  // namespace
}  // namespace lg
