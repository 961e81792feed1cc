// internet_repair: LIFEGUARD's repair primitive at Internet scale.
//
// A 70k-AS degree-matched synthetic topology (the stand-in for a CAIDA
// relationship dump), a bare util::Scheduler and bgp::BgpEngine. For K
// multihomed stub origins in turn: announce the O-O-O baseline and converge,
// poison the origin's highest-degree provider (O-X-O) and converge, then
// unpoison and converge; prefixes stay announced. A §2.2 alternate-path
// sweep over topo::ValleyFreeOracle closes the batch. No data plane, no
// episode logic, no codec: the BGP pump, decision, export/MRAI and the
// scheduler do the work.
//
// Verification runs after the timed repetitions, on a replay of input 0:
// every converge's RIB fingerprint must match the timed run, and the last
// poisoned state must agree with check::ReferenceBgp (fed that prefix's
// policy only) and pass check::InvariantChecker::check_all.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "bgp/engine.h"
#include "check/invariants.h"
#include "check/reference_bgp.h"
#include "topology/addressing.h"
#include "topology/generator.h"
#include "topology/valley_free.h"
#include "util/rng.h"
#include "util/scheduler.h"

namespace lgbench {

namespace {

using lg::topo::AsId;
using lg::topo::Prefix;

constexpr std::size_t kOrigins = 4;
constexpr std::size_t kOracleSamples = 400;
constexpr std::size_t kSetupReps = 9;
constexpr std::size_t kPathLen = 3;  // O-O-O baseline, O-X-O poison

struct Origin {
  AsId as = lg::topo::kInvalidAs;
  AsId poisoned = lg::topo::kInvalidAs;  // highest-degree provider
  Prefix prefix;
};

// Everything one input seed decides.
struct Input {
  lg::topo::GeneratedTopology topo;
  lg::bgp::EngineConfig engine;
  std::uint64_t pick_seed = 0;
  std::vector<Origin> origins;
  std::vector<AsId> ases;  // sorted
};

lg::topo::InternetScaleParams topology_params(const Options& opt,
                                              std::uint64_t seed) {
  lg::topo::InternetScaleParams p;
  p.total_ases = opt.smoke ? 5000 : 70000;
  p.seed = seed;
  return p;
}

lg::bgp::EngineConfig engine_config(std::uint64_t seed) {
  lg::bgp::EngineConfig c;
  c.seed = seed ^ 0x656e67696e65ULL;  // "engine"
  c.world_threads = 1;
  return c;
}

// K multihomed stubs (poison repair needs an alternate provider) inside the
// address plan's AS-id range, one drawn from each K-quantile of the
// poisoned provider's degree: repair cost grows with that degree, so every
// batch holds small and large repairs alike and inputs differ in instances,
// not in batch size.
std::vector<Origin> pick_origins(const lg::topo::GeneratedTopology& topo,
                                 std::uint64_t seed) {
  const auto& g = topo.graph;
  std::vector<Origin> pool;
  for (const AsId s : topo.stubs) {
    if (s > lg::topo::AddressPlan::kMaxAsId) continue;
    const auto providers = g.providers(s);
    if (providers.size() < 2) continue;
    Origin o;
    o.as = s;
    o.poisoned = *std::max_element(
        providers.begin(), providers.end(), [&](AsId a, AsId b) {
          const auto da = g.degree(a), db = g.degree(b);
          return da != db ? da < db : a > b;
        });
    o.prefix = lg::topo::AddressPlan::production_prefix(s);
    pool.push_back(o);
  }
  std::vector<Origin> out;
  if (pool.size() < kOrigins) return out;
  std::sort(pool.begin(), pool.end(), [&](const Origin& a, const Origin& b) {
    const auto da = g.degree(a.poisoned), db = g.degree(b.poisoned);
    return da != db ? da < db : a.as < b.as;
  });
  lg::util::Rng rng(seed, 0x6f726967ULL);
  for (std::size_t k = 0; k < kOrigins; ++k) {
    const std::size_t lo = pool.size() * k / kOrigins;
    const std::size_t hi = pool.size() * (k + 1) / kOrigins;
    out.push_back(
        pool[lo + rng.uniform_u32(static_cast<std::uint32_t>(hi - lo))]);
  }
  return out;
}

Input make_input(const Options& opt, std::uint64_t seed) {
  Input in;
  in.topo = lg::topo::generate_internet_scale(topology_params(opt, seed));
  in.engine = engine_config(seed);
  in.pick_seed = seed ^ 0x7069636bULL;  // "pick"
  in.origins = pick_origins(in.topo, in.pick_seed);
  in.ases = in.topo.graph.as_ids();
  return in;
}

lg::bgp::OriginPolicy baseline(const Origin& o) {
  lg::bgp::OriginPolicy p;
  p.default_path = lg::bgp::baseline_path(o.as, kPathLen);
  return p;
}

lg::bgp::OriginPolicy poisoned(const Origin& o) {
  lg::bgp::OriginPolicy p;
  p.default_path = lg::bgp::poisoned_path(o.as, {o.poisoned}, kPathLen);
  return p;
}

// FNV-1a over every AS's best route (neighbor + path) in AS order.
std::uint64_t rib_fingerprint(const lg::bgp::BgpEngine& engine,
                              const std::vector<AsId>& ases, const Prefix& p) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const AsId as : ases) {
    const lg::bgp::Route* best = engine.best_route(as, p);
    mix(as);
    if (best == nullptr) {
      mix(0xdeadULL);
      continue;
    }
    mix(best->neighbor);
    for (const AsId hop : best->path.get()) mix(hop);
  }
  return h;
}

// ASes whose best route toward the origin crosses its poisoned provider.
std::size_t count_through(const lg::bgp::BgpEngine& engine,
                          const std::vector<AsId>& ases, const Origin& o) {
  std::size_t n = 0;
  for (const AsId as : ases) {
    const lg::bgp::Route* best = engine.best_route(as, o.prefix);
    if (best != nullptr &&
        lg::bgp::path_traverses(best->path, o.poisoned, o.as)) {
      ++n;
    }
  }
  return n;
}

// Drain the scheduler. Traced: one frontier batch at a time, each timed.
void drain(lg::util::Scheduler& sched, bool traced,
           std::vector<double>& tick_us) {
  if (!traced) {
    sched.run();
    return;
  }
  while (true) {
    const auto t0 = Clock::now();
    if (sched.step_batch() == 0) break;
    tick_us.push_back(1e6 * seconds_since(t0));
  }
}

// One repetition of the batch on one input.
struct Rep {
  double wall_s = 0.0;
  double phase_s[3] = {0.0, 0.0, 0.0};  // announce, poison, unpoison
  std::uint64_t phase_updates[3] = {0, 0, 0};
  double oracle_s = 0.0;
  std::uint64_t updates = 0;
  std::uint64_t best_changes = 0;
  std::uint64_t mrai_deferrals = 0;
  std::uint64_t sched_events = 0;
  std::size_t sched_max_pending = 0;
  double rib_bytes_per_route = 0.0;
  std::size_t oracle_queries = 0;
  std::vector<std::uint64_t> fingerprints;  // one per converge
  std::vector<std::size_t> through_after;   // per origin, after poison
  std::vector<double> tick_us;              // traced: one per step_batch
  std::vector<double> oracle_us;            // traced: one per query
};

// §2.2: for sampled (vantage, culprit-on-its-path) pairs, does a
// policy-compliant path avoiding the culprit exist?
void oracle_sweep(const Input& in, const lg::bgp::BgpEngine& engine,
                  bool traced, Rep& rep) {
  const lg::topo::ValleyFreeOracle oracle(in.topo.graph);
  lg::util::Rng rng(in.pick_seed, 0x6f7261636cULL);
  std::vector<AsId> hops;
  for (std::size_t i = 0;
       i < kOracleSamples * 8 && rep.oracle_queries < kOracleSamples; ++i) {
    const Origin& o = in.origins[i % in.origins.size()];
    const AsId src = rng.pick(in.topo.stubs);
    if (src == o.as) continue;
    const lg::bgp::Route* best = engine.best_route(src, o.prefix);
    if (best == nullptr || best->path.empty()) continue;
    hops.clear();
    for (const AsId hop : best->path.get()) {
      if (hop != src && hop != o.as) hops.push_back(hop);
    }
    if (hops.empty()) continue;
    const AsId culprit =
        hops[rng.uniform_u32(static_cast<std::uint32_t>(hops.size()))];
    ++rep.oracle_queries;
    const auto t0 = Clock::now();
    (void)oracle.reachable(src, o.as, lg::topo::Avoidance::of_as(culprit));
    if (traced) rep.oracle_us.push_back(1e6 * seconds_since(t0));
  }
}

// The timed region is every originate + drain and the oracle sweep; RIB
// fingerprints and the poison check between them are paused out of it.
// Engine construction is set-up.
Rep run_batch(const Input& in, bool traced) {
  Rep rep;
  lg::obs::MetricsRegistry reg;
  const lg::obs::ScopedMetricsRegistry scope(reg);
  lg::util::Scheduler sched;
  lg::bgp::BgpEngine engine(in.topo.graph, sched, in.engine);
  auto& delivered = reg.counter("lg.bgp.updates_delivered");

  for (const Origin& o : in.origins) {
    const lg::bgp::OriginPolicy policies[3] = {baseline(o), poisoned(o),
                                               baseline(o)};
    for (int phase = 0; phase < 3; ++phase) {
      const std::uint64_t before = delivered.value();
      const auto t0 = Clock::now();
      engine.originate(o.as, o.prefix, policies[phase]);
      drain(sched, traced, rep.tick_us);
      const double dt = seconds_since(t0);
      rep.phase_s[phase] += dt;
      rep.wall_s += dt;
      rep.phase_updates[phase] += delivered.value() - before;
      rep.fingerprints.push_back(rib_fingerprint(engine, in.ases, o.prefix));
      if (phase == 1) {
        rep.through_after.push_back(count_through(engine, in.ases, o));
      }
    }
  }
  const auto t0 = Clock::now();
  oracle_sweep(in, engine, traced, rep);
  rep.oracle_s = seconds_since(t0);
  rep.wall_s += rep.oracle_s;

  rep.updates = delivered.value();
  rep.best_changes = reg.counter("lg.bgp.best_path_changes").value();
  rep.mrai_deferrals = reg.counter("lg.bgp.mrai_deferrals").value();
  rep.sched_events = sched.executed();
  rep.sched_max_pending = sched.max_pending();
  const auto mem = engine.rib_memory();
  rep.rib_bytes_per_route =
      mem.routes == 0 ? 0.0
                      : static_cast<double>(mem.bytes) /
                            static_cast<double>(mem.routes);
  return rep;
}

// Untimed replay of `in` up to its last poisoned state, then the two
// independent judges.
void verify(const Input& in, const Rep& timed, Report& out) {
  lg::obs::MetricsRegistry reg;
  const lg::obs::ScopedMetricsRegistry scope(reg);
  lg::util::Scheduler sched;
  lg::bgp::BgpEngine engine(in.topo.graph, sched, in.engine);
  std::vector<double> unused;
  std::size_t converge = 0;
  bool replay_matches = true;
  for (std::size_t i = 0; i < in.origins.size(); ++i) {
    const Origin& o = in.origins[i];
    const bool last = i + 1 == in.origins.size();
    const lg::bgp::OriginPolicy policies[3] = {baseline(o), poisoned(o),
                                               baseline(o)};
    for (int phase = 0; phase < (last ? 2 : 3); ++phase) {
      engine.originate(o.as, o.prefix, policies[phase]);
      drain(sched, false, unused);
      replay_matches = replay_matches &&
                       rib_fingerprint(engine, in.ases, o.prefix) ==
                           timed.fingerprints[converge++];
    }
  }
  out.check(replay_matches,
            "replayed RIB fingerprints differ from the timed run");

  const Origin& last = in.origins.back();
  auto t0 = Clock::now();
  lg::check::ReferenceBgp ref(in.topo.graph);
  ref.originate(last.as, last.prefix, poisoned(last));
  const bool solved = ref.solve();
  std::size_t mismatches = 0;
  for (const AsId as : in.ases) {
    const lg::bgp::Route* got = engine.best_route(as, last.prefix);
    const lg::check::RefRoute* want = ref.best_route(as, last.prefix);
    const bool match = (got == nullptr) == (want == nullptr) &&
                       (got == nullptr || (got->path == want->path &&
                                           got->neighbor == want->neighbor));
    if (!match) ++mismatches;
  }
  out.set("check.reference_s", seconds_since(t0), "s");
  out.check(solved, "reference BGP did not reach a fixpoint");
  out.check(mismatches == 0, "engine disagrees with reference BGP on " +
                                 std::to_string(mismatches) + " ASes");

  t0 = Clock::now();
  const auto violations = lg::check::InvariantChecker(engine).check_all();
  out.set("check.invariants_s", seconds_since(t0), "s");
  out.check(violations.empty(),
            violations.empty() ? std::string("invariants")
                               : violations.front().invariant + ": " +
                                     violations.front().detail);
}

}  // namespace

void run_internet_repair(const Options& opt, Report& out) {
  // ---- set-up of input 0: topology generation + engine construction,
  // median of kSetupReps. ----
  const std::uint64_t seed0 = input_seed(opt, 0);
  std::vector<double> gen_s, init_s, setup_s;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    auto t0 = Clock::now();
    const auto topo =
        lg::topo::generate_internet_scale(topology_params(opt, seed0));
    gen_s.push_back(seconds_since(t0));
    lg::obs::MetricsRegistry reg;
    const lg::obs::ScopedMetricsRegistry scope(reg);
    lg::util::Scheduler sched;
    t0 = Clock::now();
    const lg::bgp::BgpEngine engine(topo.graph, sched, engine_config(seed0));
    init_s.push_back(seconds_since(t0));
    setup_s.push_back(gen_s.back() + init_s.back());
  }

  // ---- timed repetitions, one input each ----
  const auto runs = repeat<Rep>(opt, "internet_repair",
                                [&](std::size_t input, bool traced) {
    const Input in = make_input(opt, input_seed(opt, input));
    if (in.origins.size() != kOrigins) {
      throw std::runtime_error("input has too few multihomed stub origins");
    }
    return run_batch(in, traced);
  });

  // ---- checks ----
  for (std::size_t r = 0; r < runs.plain.size(); ++r) {
    const Rep& rep = runs.plain[r];
    const std::string tag = " (input " + std::to_string(r) + ")";
    for (const std::size_t n : rep.through_after) {
      out.check(n == 0, std::to_string(n) +
                            " ASes still route through a poisoned AS" + tag);
    }
    out.check(rep.oracle_queries == kOracleSamples,
              "oracle sweep drew too few samples" + tag);
    out.check(rep.updates > 0 && rep.sched_events > 0 &&
                  rep.best_changes > 0 && rep.mrai_deferrals > 0,
              "a BGP or scheduler counter read zero" + tag);
  }
  for (std::size_t r = 0; r < runs.traced.size(); ++r) {
    out.check(runs.traced[r].fingerprints == runs.plain[r].fingerprints,
              "traced run of input " + std::to_string(r) +
                  " reached different RIBs");
  }
  const Rep& first = runs.plain.front();
  verify(make_input(opt, seed0), first, out);
  std::printf("  internet_repair: %zu inputs, %llu updates on input 0\n",
              runs.plain.size(),
              static_cast<unsigned long long>(first.updates));

  // ---- metrics: medians over inputs; counts are input 0's ----
  out.set("wall_s",
          median_of(runs.plain, [](const Rep& r) { return r.wall_s; }), "s");
  out.set("setup_s", median(setup_s), "s");
  out.set("peak_rss_mb", runs.rss_mb, "MB");
  out.set("updates_per_s", median_of(runs.plain, [](const Rep& r) {
            return static_cast<double>(r.updates) / r.wall_s;
          }),
          "1/s");
  // An internet_repair episode is one origin's announce-poison-unpoison
  // repair cycle.
  out.set("episodes_per_s", median_of(runs.plain, [](const Rep& r) {
            return static_cast<double>(kOrigins) / r.wall_s;
          }),
          "1/s");

  out.set("topology.generate_s", median(gen_s), "s");
  out.set("bgp.engine_init_s", median(init_s), "s");
  out.set("util.sched_events", static_cast<double>(first.sched_events),
          "count");
  out.set("util.sched_max_pending",
          static_cast<double>(first.sched_max_pending), "count");
  out.set("bgp.best_change_ratio",
          static_cast<double>(first.best_changes) /
              static_cast<double>(first.updates),
          "ratio");
  out.set("bgp.mrai_deferrals", static_cast<double>(first.mrai_deferrals),
          "count");
  out.set("bgp.rib_bytes_per_route", first.rib_bytes_per_route, "B");
  out.set("bgp.announce_updates", static_cast<double>(first.phase_updates[0]),
          "count");
  out.set("bgp.poison_updates", static_cast<double>(first.phase_updates[1]),
          "count");
  out.set("bgp.unpoison_updates",
          static_cast<double>(first.phase_updates[2]), "count");
  out.set("topology.oracle_queries",
          static_cast<double>(first.oracle_queries), "count");
  if (!opt.trace) return;

  // ---- per-layer timings, from the traced repetitions ----
  const auto& traced = runs.traced;
  std::vector<double> tick_us, oracle_us;
  double bgp_s = 0.0;
  std::uint64_t bgp_updates = 0;
  for (const Rep& rep : traced) {
    for (int p = 0; p < 3; ++p) {
      bgp_s += rep.phase_s[p];
      bgp_updates += rep.phase_updates[p];
    }
    tick_us.insert(tick_us.end(), rep.tick_us.begin(), rep.tick_us.end());
    oracle_us.insert(oracle_us.end(), rep.oracle_us.begin(),
                     rep.oracle_us.end());
  }
  out.set("bgp.announce_s",
          median_of(traced, [](const Rep& r) { return r.phase_s[0]; }), "s");
  out.set("bgp.poison_s",
          median_of(traced, [](const Rep& r) { return r.phase_s[1]; }), "s");
  out.set("bgp.unpoison_s",
          median_of(traced, [](const Rep& r) { return r.phase_s[2]; }), "s");
  out.set("topology.oracle_sweep_s",
          median_of(traced, [](const Rep& r) { return r.oracle_s; }), "s");
  out.set("bgp.us_per_update",
          1e6 * bgp_s / static_cast<double>(bgp_updates), "us");
  out.set("util.frontier_ticks",
          static_cast<double>(traced.front().tick_us.size()), "count");
  out.set("util.frontier_tick_us.p50", quantile(tick_us, 0.50), "us");
  out.set("util.frontier_tick_us.p99", quantile(tick_us, 0.99), "us");
  out.set("topology.oracle_query_us.p50", quantile(oracle_us, 0.50), "us");
  out.set("topology.oracle_query_us.p99", quantile(oracle_us, 0.99), "us");
  out.set("trace.overhead_s", trace_overhead_s(runs), "s");
  // The traced layers (three BGP phases and the oracle sweep) against the
  // untraced wall time of the same input.
  out.set("trace.layer_coverage", layer_coverage(runs, [](const Rep& r) {
            return r.phase_s[0] + r.phase_s[1] + r.phase_s[2] + r.oracle_s;
          }),
          "ratio");
}

}  // namespace lgbench
