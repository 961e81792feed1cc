// Microbenchmarks (google-benchmark) for the substrate hot paths: BGP
// origination+convergence, FIB lookups, data-plane forwarding, valley-free
// reachability queries, probe execution, and the RNG/stats plumbing.
//
// A custom reporter captures per-benchmark wall-clock timings and writes
// them into BENCH_micro_perf.json, making this harness the perf baseline
// that later PRs diff against. Run with LG_METRICS=off to measure the cost
// of the disabled-instrumentation branch.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/remediation.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "topology/generator.h"
#include "topology/valley_free.h"
#include "util/rng.h"
#include "workload/outages.h"
#include "workload/sim_world.h"

namespace {

using namespace lg;
using topo::AsId;

workload::SimWorld& shared_world() {
  static workload::SimWorld world(workload::SimWorld::small_config(7));
  return world;
}

void BM_TopologyGenerate(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    topo::TopologyParams params;
    params.num_stubs = static_cast<std::uint32_t>(state.range(0));
    params.seed = seed++;
    benchmark::DoNotOptimize(topo::generate_topology(params));
  }
}
BENCHMARK(BM_TopologyGenerate)->Arg(200)->Arg(600);

void BM_BgpOriginateAndConverge(benchmark::State& state) {
  auto& world = shared_world();
  const AsId origin = world.topology().stubs.front();
  const auto prefix = topo::AddressPlan::production_prefix(origin);
  for (auto _ : state) {
    bgp::OriginPolicy policy;
    policy.default_path = bgp::AsPath{origin};
    world.engine().originate(origin, prefix, policy);
    world.converge();
    world.engine().withdraw(origin, prefix);
    world.converge();
  }
}
BENCHMARK(BM_BgpOriginateAndConverge);

// Frontier-pump throughput: a 300-stub topology with eight stub origins
// announcing (then withdrawing) simultaneously, so every delivery quantum
// carries updates for many receivers.
lg::workload::SimWorld& pump_world() {
  static lg::workload::SimWorld world([] {
    lg::workload::SimWorldConfig cfg;
    cfg.topology.num_stubs = 300;
    cfg.topology.seed = 21;
    cfg.engine.seed = 21;
    cfg.announce_infrastructure = false;
    return cfg;
  }());
  return world;
}

void BM_FrontierPump(benchmark::State& state) {
  auto& world = pump_world();
  const auto& stubs = world.topology().stubs;
  const std::size_t stride = stubs.size() / 8;
  std::vector<std::pair<AsId, topo::Prefix>> origins;
  for (std::size_t i = 0; i < 8; ++i) {
    const AsId as = stubs[i * stride];
    origins.emplace_back(as, topo::AddressPlan::production_prefix(as));
  }
  for (auto _ : state) {
    for (const auto& [as, prefix] : origins) {
      bgp::OriginPolicy policy;
      policy.default_path = bgp::AsPath{as};
      world.engine().originate(as, prefix, policy);
    }
    world.converge();
    for (const auto& [as, prefix] : origins) {
      world.engine().withdraw(as, prefix);
    }
    world.converge();
  }
}
BENCHMARK(BM_FrontierPump);

// Per-frontier fixed overhead (bucket bookkeeping, receiver ordering)
// rather than decision throughput: a single origin flapping on the same
// 300-stub world, so most frontiers carry only a handful of messages and the
// pump's bookkeeping dominates — the cost floor the old event-at-a-time loop
// did not pay.
void BM_FrontierMerge(benchmark::State& state) {
  auto& world = pump_world();
  const AsId origin = world.topology().stubs.front();
  const auto prefix = topo::AddressPlan::production_prefix(origin);
  for (auto _ : state) {
    bgp::OriginPolicy policy;
    policy.default_path = bgp::AsPath{origin};
    world.engine().originate(origin, prefix, policy);
    world.converge();
    world.engine().withdraw(origin, prefix);
    world.converge();
  }
}
BENCHMARK(BM_FrontierMerge);

void BM_PoisonAndConverge(benchmark::State& state) {
  auto& world = shared_world();
  AsId origin = world.topology().first_multihomed_stub();
  core::Remediator remediator(world.engine(), origin);
  remediator.announce_baseline();
  world.converge();
  const AsId victim = world.feed_ases(1).front();
  for (auto _ : state) {
    remediator.poison(victim);
    world.converge();
    remediator.unpoison();
    world.converge();
  }
}
BENCHMARK(BM_PoisonAndConverge);

void BM_FibLookup(benchmark::State& state) {
  auto& world = shared_world();
  const AsId as = world.topology().stubs.front();
  const auto addr = topo::AddressPlan::router_address(
      topo::RouterId{world.topology().tier1.front(), 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.engine().fib_lookup(as, addr));
  }
}
BENCHMARK(BM_FibLookup);

void BM_DataPlaneForward(benchmark::State& state) {
  auto& world = shared_world();
  const AsId src = world.topology().stubs.front();
  const AsId dst = world.topology().stubs.back();
  const auto addr =
      topo::AddressPlan::router_address(topo::RouterId{dst, 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.dataplane().forward(src, addr));
  }
}
BENCHMARK(BM_DataPlaneForward);

// The same leg as BM_DataPlaneForward without recording its hops: what each
// ping leg and traceroute reply costs.
void BM_DataPlaneReach(benchmark::State& state) {
  auto& world = shared_world();
  const AsId src = world.topology().stubs.front();
  const AsId dst = world.topology().stubs.back();
  const auto addr =
      topo::AddressPlan::router_address(topo::RouterId{dst, 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.dataplane().reach(src, addr));
  }
}
BENCHMARK(BM_DataPlaneReach);

void BM_Ping(benchmark::State& state) {
  auto& world = shared_world();
  static bool announced = [] {
    auto& w = shared_world();
    w.announce_production(w.topology().stubs.front());
    w.converge();
    return true;
  }();
  (void)announced;
  const AsId src = world.topology().stubs.front();
  const auto vp_addr = topo::AddressPlan::production_host(src);
  const auto target = topo::AddressPlan::router_address(
      topo::RouterId{world.topology().stubs.back(), 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.prober().ping(src, target, vp_addr));
  }
}
BENCHMARK(BM_Ping);

void BM_ValleyFreeReachability(benchmark::State& state) {
  auto& world = shared_world();
  const topo::ValleyFreeOracle oracle(world.graph());
  const AsId src = world.topology().stubs.front();
  const AsId dst = world.topology().stubs.back();
  const auto avoid =
      topo::Avoidance::of_as(world.topology().large_transit.front());
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.reachable(src, dst, avoid));
  }
}
BENCHMARK(BM_ValleyFreeReachability);

// The same question at Internet scale, where the whole-graph BFS dominates:
// a 10k-AS internet-scale graph and a fixed cycle of (stub, origin, culprit
// on the stub's unconstrained path) queries, as the §2.2 sweep and the §5.1
// poison decision ask them. Reported per query.
void BM_ValleyFreeReachabilityAtScale(benchmark::State& state) {
  topo::InternetScaleParams params;
  params.total_ases = 10000;
  params.seed = 17;
  const auto topo = topo::generate_internet_scale(params);
  const topo::ValleyFreeOracle oracle(topo.graph);
  struct Query {
    AsId src;
    AsId origin;
    topo::Avoidance avoid;
  };
  std::vector<Query> queries;
  util::Rng rng(2211, 0x7363616c65ULL);  // "scale"
  while (queries.size() < 64) {
    const AsId src = rng.pick(topo.stubs);
    const AsId origin = rng.pick(topo.stubs);
    const auto path = oracle.shortest_path(src, origin);
    if (path.size() < 3) continue;
    const AsId culprit =
        path[1 + rng.uniform_u32(static_cast<std::uint32_t>(path.size() - 2))];
    queries.push_back({src, origin, topo::Avoidance::of_as(culprit)});
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const Query& q = queries[next++ % queries.size()];
    benchmark::DoNotOptimize(oracle.reachable(q.src, q.origin, q.avoid));
  }
}
BENCHMARK(BM_ValleyFreeReachabilityAtScale)->Unit(benchmark::kMicrosecond);

// Single-speaker hot paths, isolated from the scheduler (the engine only
// supplies the speaker and its adjacency): one transit AS
// with two customer neighbors alternately announcing the same prefix. The
// Arg is the topology's stub count (neighbor fan-out grows with it), at the
// usual small scale and the 600-stub scale of the scaling experiments.
struct SpeakerFixture {
  topo::GeneratedTopology topo;
  AsId as = topo::kInvalidAs;
  AsId cust1 = topo::kInvalidAs;
  AsId cust2 = topo::kInvalidAs;
  AsId origin = topo::kInvalidAs;
  topo::Prefix prefix;

  explicit SpeakerFixture(std::uint32_t stubs) {
    topo::TopologyParams params;
    params.num_stubs = stubs;
    params.seed = 11;
    topo = topo::generate_topology(params);
    for (const AsId cand : topo.small_transit) {
      std::vector<AsId> customers;
      for (const auto& n : topo.graph.neighbors(cand)) {
        if (n.rel == topo::Rel::kCustomer) customers.push_back(n.id);
      }
      if (customers.size() >= 2) {
        as = cand;
        cust1 = customers[0];
        cust2 = customers[1];
        break;
      }
    }
    origin = topo.stubs.front();
    prefix = topo::AddressPlan::production_prefix(origin);
  }

  bgp::UpdateMessage announce(AsId from, bgp::AsPath path) const {
    bgp::UpdateMessage msg;
    msg.type = bgp::MsgType::kAnnounce;
    msg.from = from;
    msg.to = as;
    msg.prefix = prefix;
    msg.path = bgp::PathRef(std::move(path));
    return msg;
  }
};

void BM_ProcessUpdate(benchmark::State& state) {
  const SpeakerFixture fx(static_cast<std::uint32_t>(state.range(0)));
  util::Scheduler sched;
  bgp::BgpEngine engine(fx.topo.graph, sched);
  bgp::BgpSpeaker& speaker = engine.speaker(fx.as);
  const auto m1 = fx.announce(fx.cust1, {fx.cust1, fx.origin});
  const auto m2 = fx.announce(fx.cust2, {fx.cust2, fx.origin, fx.origin});
  bool flip = false;
  double now = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(speaker.process_update(flip ? m2 : m1, now));
    flip = !flip;
    now += 0.001;
  }
}
BENCHMARK(BM_ProcessUpdate)->Arg(200)->Arg(600);

void BM_ExportPath(benchmark::State& state) {
  const SpeakerFixture fx(static_cast<std::uint32_t>(state.range(0)));
  util::Scheduler sched;
  bgp::BgpEngine engine(fx.topo.graph, sched);
  bgp::BgpSpeaker& speaker = engine.speaker(fx.as);
  // Customer-learned best route: exportable to every neighbor, and cust2 is
  // not the next hop, so split horizon does not bite.
  speaker.process_update(fx.announce(fx.cust1, {fx.cust1, fx.origin}), 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(speaker.export_path(fx.prefix, fx.cust2));
  }
}
BENCHMARK(BM_ExportPath)->Arg(200)->Arg(600);

// Full-graph convergence on the internet-scale synthetic: one prefix
// originated at a stub, scheduler drained, fresh engine per iteration. The
// Arg is total ASes; counters carry the structural memory accounting so the
// bytes/route trajectory lands in BENCH_micro_perf.json alongside the
// timing.
void BM_FullGraphConverge(benchmark::State& state) {
  topo::InternetScaleParams params;
  params.total_ases = static_cast<std::uint32_t>(state.range(0));
  params.seed = 17;
  const auto topo = topo::generate_internet_scale(params);
  const AsId origin = topo.stubs.front();
  const auto prefix = topo::AddressPlan::production_prefix(origin);
  double bytes_per_route = 0.0;
  double routes = 0.0;
  for (auto _ : state) {
    util::Scheduler sched;
    bgp::BgpEngine engine(topo.graph, sched);
    bgp::OriginPolicy policy;
    policy.default_path = bgp::AsPath{origin};
    engine.originate(origin, prefix, policy);
    sched.run();
    const auto mem = engine.rib_memory();
    routes = static_cast<double>(mem.routes);
    bytes_per_route = mem.routes == 0
                          ? 0.0
                          : static_cast<double>(mem.bytes) /
                                static_cast<double>(mem.routes);
    benchmark::DoNotOptimize(mem.bytes);
  }
  state.counters["ases"] = static_cast<double>(state.range(0));
  state.counters["routes"] = routes;
  state.counters["bytes_per_route"] = bytes_per_route;
}
BENCHMARK(BM_FullGraphConverge)
    ->Unit(benchmark::kMillisecond)
    ->Arg(2000)
    ->Arg(10000);

// Cost of the rib_memory() accounting sweep itself over a converged
// full-graph engine (it walks every speaker's containers; the bench gate
// runs it after every convergence, so it must stay cheap).
void BM_RibMemory(benchmark::State& state) {
  topo::InternetScaleParams params;
  params.total_ases = static_cast<std::uint32_t>(state.range(0));
  params.seed = 17;
  const auto topo = topo::generate_internet_scale(params);
  util::Scheduler sched;
  bgp::BgpEngine engine(topo.graph, sched);
  const AsId origin = topo.stubs.front();
  bgp::OriginPolicy policy;
  policy.default_path = bgp::AsPath{origin};
  engine.originate(origin, topo::AddressPlan::production_prefix(origin),
                   policy);
  sched.run();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.rib_memory().bytes);
  }
  const auto mem = engine.rib_memory();
  state.counters["routes"] = static_cast<double>(mem.routes);
  state.counters["bytes_per_route"] =
      mem.routes == 0 ? 0.0
                      : static_cast<double>(mem.bytes) /
                            static_cast<double>(mem.routes);
}
BENCHMARK(BM_RibMemory)->Unit(benchmark::kMicrosecond)->Arg(2000)->Arg(10000);

// Span begin+end pair against a private registry. Arg(1) is the enabled
// path (id derivation, deque append, index insert, end lookup); Arg(0) is
// the disabled path, which must stay branch-plus-nothing — this is the cost
// every instrumented call site pays when spans are off.
void BM_SpanBeginEnd(benchmark::State& state) {
  obs::SpanRegistry spans;
  spans.set_enabled(state.range(0) != 0);
  spans.set_seed(42);
  double now = 0.0;
  std::uint64_t n = 0;
  for (auto _ : state) {
    const obs::SpanId id = spans.begin(now, "bench.span", 0, 1, 2);
    now += 0.001;
    spans.end(id, now);
    // Bound the deque: the periodic clear is amortized into the timing,
    // which is honest — real runs pay for span storage too.
    if ((++n & 0xFFFF) == 0) spans.clear();
  }
  benchmark::DoNotOptimize(spans.size());
}
BENCHMARK(BM_SpanBeginEnd)->Arg(0)->Arg(1);

// One trace-ring append. Arg(1) exercises the enabled ring-buffer write
// (including wraparound once warm); Arg(0) the disabled early-out branch.
void BM_TraceAppend(benchmark::State& state) {
  obs::TraceRing ring;
  ring.set_capacity(1 << 12);
  ring.set_enabled(state.range(0) != 0);
  double now = 0.0;
  for (auto _ : state) {
    ring.record(now, obs::TraceKind::kProbeIssued, 7, 1234);
    now += 0.001;
  }
  benchmark::DoNotOptimize(ring.size());
}
BENCHMARK(BM_TraceAppend)->Arg(0)->Arg(1);

void BM_OutageStudyGeneration(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        workload::generate_outage_study(10308, {}, seed++));
  }
}
BENCHMARK(BM_OutageStudyGeneration);

// Console output as usual, plus a captured copy of every per-iteration run
// so main() can serialize the timings into the JSON run report.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Captured {
    std::string name;
    double real_ns_per_iter = 0.0;
    double cpu_ns_per_iter = 0.0;
    std::uint64_t iterations = 0;
    std::vector<std::pair<std::string, double>> counters;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      Captured c{
          run.benchmark_name(),
          run.real_accumulated_time / iters * 1e9,
          run.cpu_accumulated_time / iters * 1e9,
          static_cast<std::uint64_t>(run.iterations),
          {},
      };
      for (const auto& [key, counter] : run.counters) {
        c.counters.emplace_back(key, static_cast<double>(counter));
      }
      captured_.push_back(std::move(c));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Captured>& captured() const { return captured_; }

 private:
  std::vector<Captured> captured_;
};

}  // namespace

int main(int argc, char** argv) {
  auto& registry = obs::MetricsRegistry::global();
  registry.set_enabled(true);
  registry.configure_from_env();  // LG_METRICS=off measures the opt-out cost
  registry.reset();
  // Tracing and span capture stay off: per-message ring/deque writes would
  // skew the hot loops. BM_TraceAppend/BM_SpanBeginEnd measure those costs
  // against private instances instead.
  obs::TraceRing::global().set_enabled(false);
  obs::SpanRegistry::global().set_enabled(false);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  obs::RunReport report("micro_perf");
  report.set_config("metrics_enabled", registry.enabled());
  report.set_config("tracing_enabled", false);
  for (const auto& run : reporter.captured()) {
    report.headline(run.name + ".real_ns_per_iter", run.real_ns_per_iter);
    report.headline(run.name + ".cpu_ns_per_iter", run.cpu_ns_per_iter);
    report.headline(run.name + ".iterations",
                    static_cast<double>(run.iterations));
    for (const auto& [key, value] : run.counters) {
      report.headline(run.name + "." + key, value);
    }
  }
  report.capture_metrics();
  const std::string path = report.default_path();
  if (report.write_file(path)) {
    std::printf("\nJSON report: %s\n", path.c_str());
  } else {
    std::printf("\nJSON report: FAILED to write %s\n", path.c_str());
    return 1;
  }
  return 0;
}
