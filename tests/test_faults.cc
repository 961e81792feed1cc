// lg::faults — determinism of the fault-injection plane and the graceful
// degradation it drives in consumers:
//  * stateless hash draws: verdicts are pure functions of (seed, subject,
//    epoch/sequence), independent of query order and of other subjects;
//  * a disabled plane is inert (the "faults off = byte-identical benches"
//    guarantee);
//  * BGP stays eventually consistent under update loss and session resets
//    (retransmits leave the same final routes as a clean run);
//  * probe retry is deterministic and responsiveness-aware;
//  * a full faulty workload is bit-identical across LG_THREADS values
//    (TrialRunner per-trial planes).
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "bgp/engine.h"
#include "check/invariants.h"
#include "faults/fault_plane.h"
#include "obs/metrics.h"
#include "run/trial_runner.h"
#include "topology/addressing.h"
#include "topology/generator.h"
#include "util/scheduler.h"
#include "workload/churn.h"
#include "workload/sim_world.h"

namespace lg {
namespace {

using topo::AsId;

faults::FaultConfig loss_only_config() {
  faults::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 1234;
  cfg.update_loss_prob = 0.3;
  cfg.update_retransmit_seconds = 5.0;
  return cfg;
}

TEST(FaultPlane, DisabledPlaneIsInert) {
  faults::FaultPlane plane;  // default config: disabled
  EXPECT_FALSE(plane.enabled());
  EXPECT_TRUE(plane.session_up(1, 2, 100.0));
  EXPECT_FALSE(plane.lose_update(1, 2, 100.0));
  EXPECT_EQ(plane.update_delay(1, 2, 100.0), 0.0);
  EXPECT_FALSE(plane.lose_probe(1, 100.0));
  EXPECT_TRUE(plane.vantage_up(1, 100.0));
  EXPECT_EQ(plane.injected(), 0u);
}

TEST(FaultPlane, CurrentDefaultsToDisabledAndScopes) {
  EXPECT_FALSE(faults::FaultPlane::current().enabled());
  faults::FaultConfig cfg;
  cfg.enabled = true;
  faults::FaultPlane plane(cfg);
  {
    faults::ScopedFaultPlane scope(plane);
    EXPECT_EQ(&faults::FaultPlane::current(), &plane);
    EXPECT_TRUE(faults::FaultPlane::current().enabled());
  }
  EXPECT_FALSE(faults::FaultPlane::current().enabled());
}

TEST(FaultPlane, AtIntensityZeroDisablesEverything) {
  const auto cfg = faults::FaultConfig::at_intensity(0.0);
  EXPECT_FALSE(cfg.enabled);
  const auto full = faults::FaultConfig::at_intensity(1.0);
  EXPECT_TRUE(full.enabled);
  EXPECT_GT(full.update_loss_prob, 0.0);
  EXPECT_GT(full.probe_loss_prob, 0.0);
  // Clamped above 1.
  EXPECT_EQ(faults::FaultConfig::at_intensity(7.0).update_loss_prob,
            full.update_loss_prob);
}

TEST(FaultPlane, WindowedVerdictsAreQueryOrderIndependent) {
  faults::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 99;
  cfg.session_reset_period = 100.0;
  cfg.session_reset_prob = 0.5;
  cfg.session_down_seconds = 30.0;
  faults::FaultPlane a(cfg);
  faults::FaultPlane b(cfg);

  // Plane `a` queried forward, plane `b` backward and with interleaved
  // queries about other sessions: identical verdicts for (1, 2).
  std::vector<bool> forward;
  for (int t = 0; t < 1000; t += 7) {
    forward.push_back(a.session_up(1, 2, static_cast<double>(t)));
  }
  std::vector<bool> backward(forward.size());
  for (int i = static_cast<int>(forward.size()) - 1; i >= 0; --i) {
    b.session_up(7, 8, 31.0);  // unrelated noise queries
    backward[i] = b.session_up(1, 2, static_cast<double>(i * 7));
  }
  EXPECT_EQ(forward, backward);
}

TEST(FaultPlane, RestoredAtEndsTheDownWindow) {
  faults::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 7;
  cfg.session_reset_period = 100.0;
  cfg.session_reset_prob = 0.9;
  cfg.session_down_seconds = 25.0;
  faults::FaultPlane plane(cfg);
  int down_seen = 0;
  for (int t = 0; t < 2000; ++t) {
    const double now = static_cast<double>(t);
    if (plane.session_up(3, 4, now)) {
      EXPECT_EQ(plane.session_restored_at(3, 4, now), now);
      continue;
    }
    ++down_seen;
    const double up = plane.session_restored_at(3, 4, now);
    EXPECT_GT(up, now);
    EXPECT_LE(up - now, cfg.session_down_seconds);
    EXPECT_TRUE(plane.session_up(3, 4, up));
  }
  EXPECT_GT(down_seen, 0) << "seed produced no downtime to test against";
}

TEST(FaultPlane, PerSubjectSequencesAreIndependent) {
  const auto cfg = loss_only_config();
  faults::FaultPlane a(cfg);
  faults::FaultPlane b(cfg);
  // Plane `b` first burns draws on another session; the (1, 2) loss pattern
  // must be unaffected — per-subject counters, no shared stream.
  for (int i = 0; i < 50; ++i) b.lose_update(3, 4, 0.0);
  std::vector<bool> pa, pb;
  for (int i = 0; i < 200; ++i) {
    pa.push_back(a.lose_update(1, 2, 0.0));
    pb.push_back(b.lose_update(1, 2, 0.0));
  }
  EXPECT_EQ(pa, pb);
  EXPECT_GT(a.injected(), 0u);
}

// Final routes with update loss + session resets must equal the clean run's:
// lost updates are retransmitted and sessions re-diff their Adj-RIB-Out on
// restore, so the control plane converges to the same fixpoint.
TEST(FaultPlane, BgpConvergesToCleanFixpointUnderFaults) {
  const auto best_paths = [](bool faulty) {
    faults::FaultConfig cfg = loss_only_config();
    cfg.session_reset_period = 300.0;
    cfg.session_reset_prob = 0.4;
    cfg.session_down_seconds = 40.0;
    cfg.enabled = faulty;
    faults::FaultPlane plane(cfg);
    faults::ScopedFaultPlane scope(plane);

    auto topo = topo::make_fig2_topology();
    util::Scheduler sched;
    bgp::BgpEngine engine(topo.graph, sched);
    const auto prefix = topo::AddressPlan::production_prefix(topo.o);
    bgp::OriginPolicy policy;
    policy.default_path = bgp::AsPath{topo.o};
    engine.originate(topo.o, prefix, policy);
    sched.run();

    std::vector<bgp::AsPath> paths;
    for (const AsId as : topo.graph.as_ids()) {
      const auto* route = engine.best_route(as, prefix);
      paths.push_back(route != nullptr ? route->path.get() : bgp::AsPath{});
    }
    return paths;
  };
  EXPECT_EQ(best_paths(false), best_paths(true));
}

// Regression: a delayed in-flight announce must not overwrite newer state.
// With an extra propagation delay larger than the session's MRAI, a newer
// announce would be due before the one it supersedes; unless the engine
// holds it back, the receiver applies the stale path last and stays pinned
// to it (Adj-RIB-Out and the neighbor's RIB-in disagreeing) until some
// unrelated update. Drive origin churn under heavy delay and check
// sender/receiver consistency plus equality with the clean fixpoint at
// quiescence.
TEST(FaultPlane, StaleInFlightRedeliveryCannotPinOldRoutes) {
  const auto best_paths = [](bool faulty) {
    obs::MetricsRegistry reg;
    obs::ScopedMetricsRegistry scoped_reg(reg);
    faults::FaultConfig cfg;
    cfg.enabled = faulty;
    cfg.seed = 21;
    cfg.update_delay_prob = 0.5;
    cfg.update_delay_max_seconds = 25.0;  // far above the 2s MRAI below
    faults::FaultPlane plane(cfg);
    faults::ScopedFaultPlane scope(plane);

    auto topo = topo::make_fig2_topology();
    util::Scheduler sched;
    bgp::EngineConfig ec;
    ec.default_mrai = 2.0;
    bgp::BgpEngine engine(topo.graph, sched, ec);
    const auto prefix = topo::AddressPlan::production_prefix(topo.o);
    // Alternate plain / poisoned / longer-prepended originations so every
    // flap diffs against Adj-RIB-Out and sends, keeping updates in flight.
    const std::vector<bgp::AsPath> paths = {
        bgp::AsPath{topo.o},
        bgp::poisoned_path(topo.o, {topo.a}, 3),
        bgp::AsPath{topo.o, topo.o, topo.o},
        bgp::AsPath{topo.o},
    };
    for (std::size_t i = 0; i < paths.size(); ++i) {
      sched.at(static_cast<double>(i) * 3.0, [&engine, &topo, prefix,
                                              path = paths[i]] {
        bgp::OriginPolicy policy;
        policy.default_path = path;
        engine.originate(topo.o, prefix, policy);
      });
    }
    sched.run();
    EXPECT_TRUE(sched.empty());

    // At quiescence every Adj-RIB-Out entry must match the neighbor's
    // RIB-in — the invariant the stale redelivery broke.
    std::vector<check::Violation> out;
    check::InvariantChecker(engine).check_adj_out_consistency(out);
    for (const auto& v : out) {
      ADD_FAILURE() << "[" << v.invariant << "] " << v.detail;
    }

    // The scenario is only meaningful if some update really had to be held
    // back behind an older one.
    if (faulty) {
      EXPECT_GT(reg.counter("lg.bgp.updates_held").value(), 0u)
          << "no update was held to keep order; the regression is untested";
    }

    std::vector<bgp::AsPath> result;
    for (const AsId as : topo.graph.as_ids()) {
      const auto* route = engine.best_route(as, prefix);
      result.push_back(route != nullptr ? route->path.get() : bgp::AsPath{});
    }
    return result;
  };
  EXPECT_EQ(best_paths(false), best_paths(true));
}

// An update whose arrival falls inside a reset of its session is held until
// the session is back up: its delivery time is moved past the down window
// when it is sent, and the pump never looks at the fault plane again.
TEST(FaultPlane, UpdateArrivingDuringSessionResetWaitsForRestore) {
  faults::FaultConfig cfg;
  cfg.enabled = true;
  cfg.session_reset_period = 100.0;
  cfg.session_reset_prob = 1.0;  // every session resets in every epoch
  cfg.session_down_seconds = 30.0;
  faults::FaultPlane plane(cfg);
  faults::ScopedFaultPlane scope(plane);

  // Where the first 1 -> 2 reset after t = 1 s begins, to the millisecond.
  double start = 1.0;
  while (!plane.session_up(1, 2, start)) start += 0.001;
  while (plane.session_up(1, 2, start)) start += 0.001;
  const double restored = plane.session_restored_at(1, 2, start);

  topo::AsGraph graph;
  graph.add_as(1);
  graph.add_as(2);
  graph.add_link(2, 1, topo::Rel::kCustomer);
  util::Scheduler sched;
  bgp::BgpEngine engine(graph, sched);
  const auto prefix = topo::AddressPlan::production_prefix(1);
  // Sent while the session is still up, due 5-45 ms later: inside the reset.
  sched.at(start - 0.005, [&engine, prefix] {
    bgp::OriginPolicy policy;
    policy.default_path = bgp::AsPath{1};
    engine.originate(1, prefix, policy);
  });
  sched.run(restored);
  EXPECT_EQ(engine.best_route(2, prefix), nullptr);
  sched.run();
  EXPECT_NE(engine.best_route(2, prefix), nullptr);
  EXPECT_GT(engine.last_activity_time(), restored);
}

// Regression: lost updates are booked under their own counter, keeping
// sent == announces + withdrawals + lost an identity (a lost update is
// neither kind on the wire; before the dedicated counter it silently
// inflated `sent` and the identity was unverifiable).
TEST(FaultPlane, LostUpdatesKeepTheSentCounterIdentity) {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scoped_reg(reg);
  faults::FaultConfig cfg = loss_only_config();
  faults::FaultPlane plane(cfg);
  faults::ScopedFaultPlane scope(plane);

  auto topo = topo::make_fig2_topology();
  util::Scheduler sched;
  bgp::BgpEngine engine(topo.graph, sched);
  const auto prefix = topo::AddressPlan::production_prefix(topo.o);
  bgp::OriginPolicy policy;
  policy.default_path = bgp::AsPath{topo.o};
  engine.originate(topo.o, prefix, policy);
  sched.run();
  engine.withdraw(topo.o, prefix);
  sched.run();

  const std::uint64_t sent = reg.counter("lg.bgp.updates_sent").value();
  const std::uint64_t lost = reg.counter("lg.bgp.updates_lost").value();
  const std::uint64_t announces =
      reg.counter("lg.bgp.announces_sent").value();
  const std::uint64_t withdrawals =
      reg.counter("lg.bgp.withdrawals_sent").value();
  EXPECT_GT(lost, 0u) << "30% loss produced no lost update";
  EXPECT_EQ(sent, announces + withdrawals + lost);
}

// Without an enabled fault plane the loss/held counters must not even be
// registered — fault-free run reports stay byte-identical.
TEST(FaultPlane, FaultFreeRunsRegisterNoLossCounters) {
  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scoped_reg(reg);
  auto topo = topo::make_fig2_topology();
  util::Scheduler sched;
  bgp::BgpEngine engine(topo.graph, sched);
  bgp::OriginPolicy policy;
  policy.default_path = bgp::AsPath{topo.o};
  engine.originate(topo.o, topo::AddressPlan::production_prefix(topo.o),
                   policy);
  sched.run();
  for (const auto* c : reg.counters()) {
    EXPECT_NE(c->name(), "lg.bgp.updates_lost");
    EXPECT_NE(c->name(), "lg.bgp.updates_held");
  }
  EXPECT_GT(reg.counter("lg.bgp.updates_sent").value(), 0u);
}

TEST(FaultPlane, ProbeRetryIsDeterministicPerSeed) {
  workload::SimWorld world(workload::SimWorld::small_config(5));
  const AsId src = world.topology().stubs.front();
  const AsId dst_as = world.topology().stubs.back();
  world.announce_production(src);
  world.announce_production(dst_as);
  world.converge();
  const auto vp = measure::VantagePoint::in_as(src);
  const auto dst = topo::AddressPlan::production_host(dst_as);

  faults::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 77;
  cfg.probe_loss_prob = 0.5;

  const auto run_once = [&] {
    faults::FaultPlane plane(cfg);
    faults::ScopedFaultPlane scope(plane);
    // The prober resolves its plane at construction, so build one per plane.
    measure::Prober prober(world.dataplane(), world.responsiveness());
    std::vector<int> attempts;
    for (int i = 0; i < 20; ++i) {
      attempts.push_back(prober.ping_with_retry(vp.as, dst, vp.addr).attempts);
    }
    return attempts;
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second);
  // With 50% loss some pings must actually have retried.
  EXPECT_TRUE(std::any_of(first.begin(), first.end(),
                          [](int a) { return a > 1; }));
}

TEST(FaultPlane, RetryBudgetStopsOnDeterministicallyUnresponsiveTargets) {
  workload::SimWorld world(workload::SimWorld::small_config(5));
  const AsId src = world.topology().stubs.front();
  world.announce_production(src);
  world.converge();
  const auto vp = measure::VantagePoint::in_as(src);

  // Find an infrastructure router that never answers probes.
  topo::Ipv4 dead = 0;
  for (const AsId as : world.topology().stubs) {
    if (as == src) continue;
    const auto addr = topo::AddressPlan::router_address(topo::RouterId{as, 0});
    if (!world.prober().target_responds(addr)) {
      dead = addr;
      break;
    }
  }
  ASSERT_NE(dead, 0u) << "no unresponsive router in topology";

  faults::FaultConfig cfg;
  cfg.enabled = true;
  cfg.probe_loss_prob = 0.01;
  faults::FaultPlane plane(cfg);
  faults::ScopedFaultPlane scope(plane);
  measure::Prober prober(world.dataplane(), world.responsiveness());
  const auto out = prober.ping_with_retry(vp.as, dead, vp.addr);
  EXPECT_FALSE(out.result.replied);
  EXPECT_EQ(out.attempts, 1) << "retry budget wasted on a filtered target";
}

TEST(ChurnWorkload, FlapScheduleIsDeterministic) {
  const auto run_once = [] {
    workload::SimWorld world(workload::SimWorld::small_config(9));
    world.converge();
    workload::ChurnConfig cfg;
    cfg.flappers = 5;
    cfg.mean_period_seconds = 60.0;
    cfg.stop_at = 1500.0;
    workload::ChurnWorkload churn(world, cfg);
    churn.start({});
    world.advance(2000.0);
    return std::make_pair(churn.flapper_ases(), churn.flaps());
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  EXPECT_GT(first.second, 0u);
}

// The acceptance-criterion test: a faulty multi-trial workload produces
// identical per-trial results and identical merged lg.faults.* metrics for
// any thread count.
TEST(FaultPlane, FaultyTrialsAreBitDeterministicAcrossThreadCounts) {
  struct TrialOut {
    std::uint64_t injected = 0;
    std::uint64_t messages = 0;
    std::uint64_t flaps = 0;
    bool operator==(const TrialOut&) const = default;
  };
  const auto sweep = [](std::size_t threads) {
    // The trials' metrics merge into a throwaway registry, not the global.
    obs::MetricsRegistry dst;
    const obs::ScopedMetricsRegistry metrics_scope(dst);
    run::TrialRunnerConfig rc;
    rc.threads = threads;
    rc.base_seed = 0xfeedULL;
    run::TrialRunner runner(rc);
    return runner.run(4, [](run::TrialContext& ctx) {
      faults::FaultConfig fcfg = faults::FaultConfig::at_intensity(0.6);
      fcfg.seed = ctx.seed;
      faults::FaultPlane plane(fcfg);
      faults::ScopedFaultPlane scope(plane);
      workload::SimWorld world(workload::SimWorld::small_config(ctx.seed));
      const AsId origin = world.topology().stubs.front();
      world.announce_production(origin);
      workload::ChurnConfig ccfg;
      ccfg.flappers = 4;
      ccfg.mean_period_seconds = 90.0;
      ccfg.seed = ctx.seed;
      ccfg.stop_at = 900.0;
      workload::ChurnWorkload churn(world, ccfg);
      churn.start({origin});
      world.advance(1200.0);
      return TrialOut{plane.injected(), world.engine().total_messages(),
                      churn.flaps()};
    });
  };
  const auto serial = sweep(1);
  const auto parallel = sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "trial " << i;
  }
  // Faults must actually have fired for this to mean anything.
  EXPECT_GT(serial[0].injected, 0u);
}

}  // namespace
}  // namespace lg
