// SimWorld: one fully wired simulated Internet — topology, BGP engine,
// router-level data plane, failure injector, prober — plus the setup steps
// every experiment shares (announcing infrastructure prefixes, converging,
// selecting feed/vantage ASes). Bench harnesses and integration tests build
// on this instead of re-wiring the substrate each time.
#pragma once

#include <memory>
#include <vector>

#include "bgp/collector.h"
#include "bgp/engine.h"
#include "check/audit.h"
#include "dataplane/failures.h"
#include "dataplane/forwarding.h"
#include "dataplane/router_net.h"
#include "measure/probes.h"
#include "measure/responsiveness.h"
#include "measure/vantage.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "topology/generator.h"
#include "util/scheduler.h"

namespace lg::workload {

using topo::AsId;

struct SimWorldConfig {
  // Baseline synthetic topology; overridden world-wide by LG_TOPOLOGY_FILE
  // (CAIDA relationship file) or LG_TOPOLOGY_SCALE (internet-scale
  // synthetic) via topo::topology_from_env. At Internet scale pair the
  // override with announce_infrastructure = false — one /24 per AS is an
  // N^2 RIB nobody needs (bench/internet_scale originates a single prefix).
  topo::TopologyParams topology;
  bgp::EngineConfig engine;
  measure::ResponsivenessConfig responsiveness;
  // Announce every AS's infrastructure /24 at startup and converge (needed
  // for router pings / traceroute replies). Off for a world whose RIBs come
  // from elsewhere: a restored service shard (fleet::run_service_shard)
  // loads them, infrastructure routes included, from its checkpoint.
  bool announce_infrastructure = true;
};

class SimWorld {
 public:
  explicit SimWorld(SimWorldConfig cfg = {});
  ~SimWorld() { publish_scheduler_metrics(); }

  // Convenience: smaller default topology for unit/integration tests.
  static SimWorldConfig small_config(std::uint64_t seed = 42);

  topo::GeneratedTopology& topology() noexcept { return topo_; }
  const topo::AsGraph& graph() const noexcept { return topo_.graph; }
  util::Scheduler& scheduler() noexcept { return sched_; }
  bgp::BgpEngine& engine() noexcept { return *engine_; }
  dp::RouterNet& net() noexcept { return *net_; }
  dp::FailureInjector& failures() noexcept { return failures_; }
  dp::DataPlane& dataplane() noexcept { return *dataplane_; }
  measure::Responsiveness& responsiveness() noexcept { return resp_; }
  measure::Prober& prober() noexcept { return *prober_; }

  // Originate the production /24 of `as` with a plain (unprepended) path —
  // gives the AS's hosts an address other networks can reply to.
  void announce_production(AsId as);

  // Drain the scheduler: BGP quiesces. With LG_CHECK=1 the quiesced state
  // is audited against every lg::check invariant (no-op otherwise).
  void converge() {
    auto& spans = obs::SpanRegistry::current();
    const obs::SpanId span = spans.begin(sched_.now(), "world.converge");
    sched_.run();
    spans.end(span, sched_.now());
    publish_scheduler_metrics();
    check::maybe_audit(*engine_, "SimWorld::converge");
  }
  // Advance simulated time by `seconds`, executing due events.
  void advance(double seconds) {
    sched_.run(sched_.now() + seconds);
    publish_scheduler_metrics();
  }

  // Highest-degree transit ASes, the "peers with a route collector" set of
  // §5.1 (tier-1s excluded, as the paper excludes them from poisoning).
  std::vector<AsId> feed_ases(std::size_t n) const;
  // Stub ASes usable as PlanetLab-style vantage points.
  std::vector<AsId> stub_vantage_ases(std::size_t n) const;

  // Checkpoint support: after Scheduler::layout loads the executed
  // counter underneath us, re-baseline the delta publisher so the next
  // publish does not replay (or negate) history. The restored metrics
  // registry already carries the original run's lg.scheduler.* totals.
  void sync_scheduler_baseline() noexcept {
    published_executed_ = sched_.executed();
  }

 private:
  // Mirror the scheduler's counters into the global metrics registry
  // (lg.scheduler.*). The scheduler lives below lg::obs in the dependency
  // graph, so the world — which owns it — publishes on its behalf. Deltas,
  // so several sequential worlds aggregate instead of overwriting.
  void publish_scheduler_metrics();

  topo::GeneratedTopology topo_;
  util::Scheduler sched_;
  std::uint64_t published_executed_ = 0;
  obs::Counter* c_sched_executed_;
  obs::Gauge* g_sched_queue_hwm_;
  std::unique_ptr<bgp::BgpEngine> engine_;
  std::unique_ptr<dp::RouterNet> net_;
  dp::FailureInjector failures_;
  std::unique_ptr<dp::DataPlane> dataplane_;
  measure::Responsiveness resp_;
  std::unique_ptr<measure::Prober> prober_;
};

}  // namespace lg::workload
