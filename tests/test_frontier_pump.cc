// Golden output of the frontier pump: a fixed announce/poison/withdraw
// script, clean and under faults, must serialize to exactly the recorded
// digest — best routes, engine counters, metrics and the trace ring — so any
// reordering of deliveries or side effects inside a frontier fails here.
// Plus a faulty fuzz sweep driving the full check oracle through the pump,
// a flip-flop frontier pinning net-change suppression, and the retired
// world_threads knob rejecting parallel widths.
#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bgp/collector.h"
#include "bgp/engine.h"
#include "bgp/types.h"
#include "check/fuzzer.h"
#include "faults/fault_plane.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "topology/addressing.h"
#include "topology/generator.h"
#include "util/hashing.h"
#include "util/scheduler.h"

namespace {

using lg::topo::AsId;
using lg::topo::Prefix;

lg::topo::GeneratedTopology make_topology() {
  lg::topo::TopologyParams tp;
  tp.num_tier1 = 3;
  tp.num_large_transit = 5;
  tp.num_small_transit = 8;
  tp.num_stubs = 40;
  tp.seed = 424242;
  return lg::topo::generate_topology(tp);
}

// Runs a fixed multi-origin announce/poison/withdraw script and serializes
// everything observable about the run into one string.
std::string run_fingerprint(double fault_intensity) {
  lg::topo::GeneratedTopology gt = make_topology();

  lg::obs::MetricsRegistry reg;
  const lg::obs::ScopedMetricsRegistry scoped_reg(reg);
  lg::obs::TraceRing ring(1 << 16);
  ring.set_enabled(true);
  const lg::obs::ScopedTraceRing scoped_ring(ring);

  lg::faults::FaultConfig fc;
  if (fault_intensity > 0.0) {
    fc = lg::faults::FaultConfig::at_intensity(fault_intensity);
  }
  fc.seed = 99;
  lg::faults::FaultPlane plane(fc);
  const lg::faults::ScopedFaultPlane scoped_plane(plane);

  lg::util::Scheduler sched;
  lg::bgp::EngineConfig ec;
  ec.seed = 17;
  ec.default_mrai = 5.0;
  lg::bgp::BgpEngine engine(gt.graph, sched, ec);

  const std::vector<AsId> transit = gt.transit();
  std::vector<AsId> origins(gt.stubs.begin(), gt.stubs.begin() + 8);
  std::vector<Prefix> prefixes;
  double t = 1.0;
  for (const AsId origin : origins) {
    const Prefix p = lg::topo::AddressPlan::production_prefix(origin);
    prefixes.push_back(p);
    sched.at(t, [&engine, origin, p] {
      lg::bgp::OriginPolicy policy;
      policy.default_path = lg::bgp::PathRef(lg::bgp::baseline_path(origin, 2));
      engine.originate(origin, p, policy);
    });
    t += 3.0;
  }
  // Mid-run churn: poison from half the origins, a flap from one more.
  for (std::size_t i = 0; i < origins.size() / 2; ++i) {
    const AsId origin = origins[i];
    const Prefix p = prefixes[i];
    const AsId poison = transit[i % transit.size()];
    sched.at(t, [&engine, origin, p, poison] {
      lg::bgp::OriginPolicy policy;
      policy.default_path =
          lg::bgp::PathRef(lg::bgp::poisoned_path(origin, {poison}, 3));
      engine.originate(origin, p, policy);
    });
    t += 7.0;
  }
  sched.at(t, [&engine, &origins, &prefixes] {
    engine.withdraw(origins.back(), prefixes.back());
  });
  sched.run(t + 1e6);

  std::ostringstream out;
  out << std::setprecision(17);
  out << "quiesced=" << sched.empty() << " msgs=" << engine.total_messages()
      << " last=" << engine.last_activity_time() << "\n";
  for (const AsId as : gt.graph.as_ids()) {
    out << as << " sent=" << engine.messages_sent_by(as)
        << " bc=" << engine.best_changes_of(as);
    for (const Prefix& p : prefixes) {
      if (const lg::bgp::Route* best = engine.best_route(as, p)) {
        out << " " << p.str() << "=[" << lg::bgp::path_str(best->path)
            << "]via" << best->neighbor;
      }
    }
    out << "\n";
  }
  for (const lg::obs::Counter* c : reg.counters()) {
    out << c->name() << "=" << c->value() << "\n";
  }
  for (const lg::obs::TraceEvent& ev : ring.events()) {
    out << ev.t << " " << lg::obs::trace_kind_name(ev.kind) << " " << ev.a
        << " " << ev.b << " " << ev.value << "\n";
  }
  return out.str();
}

// FNV-1a digests of run_fingerprint: the clean one recorded from the
// two-phase pump this one-pass pump replaced, the faulty one from send-time
// delivery order. A change here is a change to the canon.
constexpr std::uint64_t kCleanDigest = 0x158805aa66b83f44ULL;
constexpr std::uint64_t kFaultyDigest = 0xaae3e1e9fb3609cfULL;

TEST(FrontierPumpTest, MatchesGoldenDigestClean) {
  EXPECT_EQ(lg::util::fnv1a(run_fingerprint(0.0)), kCleanDigest);
}

TEST(FrontierPumpTest, MatchesGoldenDigestWithFaults) {
  EXPECT_EQ(lg::util::fnv1a(run_fingerprint(0.5)), kFaultyDigest);
}

// The full differential/invariant/idempotence oracle over 200 seeded random
// scenarios with faults on: delivery times held back past session resets and
// behind older updates must still converge to the reference fixpoint.
TEST(FrontierPumpTest, FuzzSweepWithFaults) {
  const lg::check::SweepSummary sweep = lg::check::run_sweep(9000, 200, 0.5);
  EXPECT_EQ(sweep.runs, 200u);
  EXPECT_TRUE(sweep.ok()) << sweep.failing_seeds.size()
                          << " seeds failed; first="
                          << (sweep.failing_seeds.empty()
                                  ? 0
                                  : sweep.failing_seeds.front());
}

// Net-change suppression: a withdraw and a re-announce of the same route,
// sent at one instant on one session, land in one frontier and flip the
// receiver's best route away and back. Each message still counts as a
// best-path change, but the frontier nets out to no change, so the receiver
// raises no route event.
TEST(FrontierPumpTest, FlipFlopInsideOneQuantumIsSuppressed) {
  using lg::topo::Rel;
  lg::topo::AsGraph graph;
  graph.add_as(1);
  graph.add_as(2, lg::topo::AsTier::kTier1);
  graph.add_as(3);
  graph.add_link(2, 1, Rel::kCustomer);
  graph.add_link(2, 3, Rel::kCustomer);

  lg::util::Scheduler sched;
  lg::bgp::EngineConfig ec;
  ec.default_mrai = 0.0;
  ec.pump_quantum = 1.0;  // coarser than any link delay
  lg::bgp::BgpEngine engine(graph, sched, ec);
  lg::bgp::RouteCollector collector;
  engine.add_observer(&collector);

  const Prefix p = lg::topo::AddressPlan::production_prefix(1);
  lg::bgp::OriginPolicy policy;
  policy.default_path = lg::bgp::AsPath{1};
  engine.originate(1, p, policy);
  sched.run();
  const lg::bgp::Route* before = engine.best_route(2, p);
  ASSERT_NE(before, nullptr);
  const lg::bgp::Route route = *before;
  const std::size_t events = collector.events_for(2, p, 0.0).size();
  const std::uint64_t changes = engine.best_changes_of(2);

  engine.withdraw(1, p);
  engine.originate(1, p, policy);
  sched.run();

  EXPECT_EQ(engine.best_changes_of(2), changes + 2);
  EXPECT_EQ(collector.events_for(2, p, 0.0).size(), events);
  ASSERT_NE(engine.best_route(2, p), nullptr);
  EXPECT_EQ(*engine.best_route(2, p), route);
}

TEST(FrontierPumpTest, RejectsParallelWorldThreads) {
  lg::topo::GeneratedTopology gt = make_topology();
  lg::util::Scheduler sched;
  lg::bgp::EngineConfig ec;
  ec.world_threads = 1;
  EXPECT_NO_THROW(lg::bgp::BgpEngine(gt.graph, sched, ec));
  ec.world_threads = 2;
  EXPECT_THROW(lg::bgp::BgpEngine(gt.graph, sched, ec), std::invalid_argument);
}

}  // namespace
