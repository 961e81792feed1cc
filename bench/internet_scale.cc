// Internet-scale substrate check — can the engine hold a full AS-graph's
// routing state and converge it on one machine?
//
// The paper operates on the real Internet (~40k ASes in 2012; ~70k today,
// measured via CAIDA's AS-relationship dumps). This harness loads that scale
// — LG_TOPOLOGY_FILE for a real CAIDA dump, LG_TOPOLOGY_SCALE or the 70k
// default for the degree-matched synthetic — wires a bare Scheduler +
// BgpEngine (no SimWorld: announcing one infrastructure /24 per AS is an
// N^2 RIB nobody needs), and runs three cells:
//   1. originate-and-converge: one production prefix from a multihomed stub
//      reaches the whole graph; bytes/route from the deterministic
//      rib_memory() accounting is the headline.
//   2. poison-repair: the origin poisons its highest-degree provider
//      (O-X-O) and the world re-converges around it — the §4 primitive at
//      full scale.
//   3. §2.2 alternate-path sweep: for sampled (vantage, culprit-on-path)
//      pairs, does a policy-compliant path avoiding the culprit exist
//      (ValleyFreeOracle)? Paper: alternates existed for 49% of outages
//      overall, 83% of those lasting >= 1 h.
//
// Determinism contract: stdout and BENCH_internet_scale.json are
// byte-identical across runs; wall time (per cell: converge, poison,
// oracle) and RSS — the nondeterministic readings — go to stderr only.
// LG_RSS_CEILING_MB=<n> turns the peak-RSS reading into an exit-code gate
// for CI.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bgp/engine.h"
#include "mem/rss.h"
#include "topology/addressing.h"
#include "topology/generator.h"
#include "topology/valley_free.h"
#include "util/env_knobs.h"
#include "util/hashing.h"
#include "util/rng.h"
#include "util/scheduler.h"

using namespace lg;
using topo::AsId;
using topo::Prefix;

namespace {

// FNV-1a over every AS's converged best route (path + advertising
// neighbor), in ascending AS order: one number that must match across
// thread counts and sessions for the same topology + seed.
std::uint64_t rib_fingerprint(const bgp::BgpEngine& engine,
                              const topo::AsGraph& graph, const Prefix& p) {
  util::Fnv1a h;
  for (const AsId as : graph.as_ids()) {
    const bgp::Route* best = engine.best_route(as, p);
    h.u64(as);
    if (best == nullptr) {
      h.u64(0xdeadULL);
      continue;
    }
    h.u64(best->neighbor);
    for (const AsId hop : best->path.get()) h.u64(hop);
  }
  return h.state;
}

std::size_t count_with_route(const bgp::BgpEngine& engine,
                             const topo::AsGraph& graph, const Prefix& p) {
  std::size_t n = 0;
  for (const AsId as : graph.as_ids()) {
    if (engine.best_route(as, p) != nullptr) ++n;
  }
  return n;
}

// Traffic from `as` toward the origin crosses `x` iff x appears on the
// best path before the origin (announcement artifacts past the origin are
// not hops, bgp::path_traverses).
std::size_t count_through(const bgp::BgpEngine& engine,
                          const topo::AsGraph& graph, const Prefix& p,
                          AsId x, AsId origin) {
  std::size_t n = 0;
  for (const AsId as : graph.as_ids()) {
    const bgp::Route* best = engine.best_route(as, p);
    if (best != nullptr && bgp::path_traverses(best->path, x, origin)) ++n;
  }
  return n;
}

}  // namespace

int main() {
  bench::header("Internet scale",
                "Full AS-graph convergence, memory-lean RIB storage, and the "
                "paper's primitives at real-Internet size");
  bench::JsonReport jr("internet_scale");

  // ---- topology ----
  // The environment's topology, else the 70k-AS synthetic default.
  auto from_env = topo::env_topology(topo::TopologyParams{}.seed);
  topo::GeneratedTopology topo = from_env
                                     ? std::move(*from_env)
                                     : topo::generate_internet_scale({});
  const char* file = topo::env_topology_file();
  jr->set_config("source", file != nullptr ? std::string(file)
                                           : std::string("synthetic"));
  jr->set_config("ases", static_cast<double>(topo.graph.num_ases()));
  jr->set_config("links", static_cast<double>(topo.graph.num_links()));
  bench::section("substrate");
  bench::kv("ASes", std::to_string(topo.graph.num_ases()));
  bench::kv("links", std::to_string(topo.graph.num_links()));
  bench::kv("tier-1 / transit / stub",
            std::to_string(topo.tier1.size()) + " / " +
                std::to_string(topo.large_transit.size() +
                               topo.small_transit.size()) +
                " / " + std::to_string(topo.stubs.size()));

  util::Scheduler sched;
  bgp::BgpEngine engine(topo.graph, sched);

  // Deterministic multihomed origin: the lowest-id stub with >= 2 providers
  // (poison repair needs an alternate provider to exist).
  AsId origin = topo.first_multihomed_stub();
  if (origin == topo::kInvalidAs) {
    std::fprintf(stderr, "no multihomed stub in topology\n");
    return 1;
  }
  const Prefix prefix = topo::AddressPlan::production_prefix(origin);
  bench::kv("origin AS", std::to_string(origin));

  // ---- cell 1: originate and converge ----
  bench::section("originate-and-converge");
  {
    bench::WallClock wc("internet_scale/converge", 1, 1);
    bgp::OriginPolicy policy;
    policy.default_path = bgp::AsPath{origin};
    engine.originate(origin, prefix, policy);
    sched.run();
  }
  const std::size_t reached = count_with_route(engine, topo.graph, prefix);
  const std::uint64_t fp0 = rib_fingerprint(engine, topo.graph, prefix);
  const auto mem = engine.rib_memory();
  const double bytes_per_route =
      mem.routes == 0 ? 0.0
                      : static_cast<double>(mem.bytes) /
                            static_cast<double>(mem.routes);
  bench::kv("ASes with a route",
            std::to_string(reached) + " / " +
                std::to_string(topo.graph.num_ases()));
  bench::kv("resident routes", std::to_string(mem.routes));
  bench::kv("RIB container bytes", std::to_string(mem.bytes));
  bench::kv("bytes/route (structural)",
            std::to_string(static_cast<std::uint64_t>(bytes_per_route)));
  char fp_hex[32];
  std::snprintf(fp_hex, sizeof fp_hex, "%016llx",
                static_cast<unsigned long long>(fp0));
  bench::kv("RIB fingerprint", fp_hex);
  jr->headline("converged_ases", static_cast<double>(reached));
  jr->headline("rib_routes", static_cast<double>(mem.routes));
  jr->headline("rib_bytes", static_cast<double>(mem.bytes));
  jr->headline("bytes_per_route", bytes_per_route);
  jr->headline("fingerprint_converge", std::string(fp_hex));

  // ---- cell 2: poison repair ----
  bench::section("poison-repair (AVOID_PROBLEM via O-X-O)");
  const auto providers = topo.graph.providers(origin);
  const AsId poisoned = *std::max_element(
      providers.begin(), providers.end(), [&](AsId a, AsId b) {
        const auto da = topo.graph.degree(a), db = topo.graph.degree(b);
        return da != db ? da < db : a > b;
      });
  const std::size_t through_before =
      count_through(engine, topo.graph, prefix, poisoned, origin);
  {
    bench::WallClock wc("internet_scale/poison", 1, 1);
    bgp::OriginPolicy poison;
    poison.default_path = bgp::poisoned_path(origin, {poisoned}, 3);
    engine.originate(origin, prefix, poison);
    sched.run();
  }
  // No SimWorld publishes this bare scheduler's lg.scheduler.* totals.
  jr->capture_scheduler(sched);
  const std::size_t reached_after =
      count_with_route(engine, topo.graph, prefix);
  const std::size_t through_after =
      count_through(engine, topo.graph, prefix, poisoned, origin);
  const std::uint64_t fp1 = rib_fingerprint(engine, topo.graph, prefix);
  std::snprintf(fp_hex, sizeof fp_hex, "%016llx",
                static_cast<unsigned long long>(fp1));
  bench::kv("poisoned provider", std::to_string(poisoned));
  bench::kv("routed through it before", std::to_string(through_before));
  bench::kv("routed through it after", std::to_string(through_after));
  bench::kv("ASes with a route after poison",
            std::to_string(reached_after) + " / " +
                std::to_string(topo.graph.num_ases()));
  bench::kv("RIB fingerprint", fp_hex);
  jr->headline("poison_through_before", static_cast<double>(through_before));
  jr->headline("poison_through_after", static_cast<double>(through_after));
  jr->headline("poison_reached", static_cast<double>(reached_after));
  jr->headline("fingerprint_poison", std::string(fp_hex));

  // ---- cell 3: §2.2 alternate-path sweep at scale ----
  bench::section("sec2.2 policy-compliant alternates (oracle sweep)");
  util::Rng rng(2211, 0x70307030ULL);
  const std::size_t kSamples = 400;
  std::size_t outages = 0, with_alternate = 0;
  std::vector<AsId> vantage_pool = topo.stubs;
  {
    bench::WallClock wc("internet_scale/oracle", 1, 1);
    const topo::ValleyFreeOracle oracle(topo.graph);
    for (std::size_t i = 0; i < kSamples * 4 && outages < kSamples; ++i) {
      const AsId src = rng.pick(vantage_pool);
      if (src == origin) continue;
      const bgp::Route* best = engine.best_route(src, prefix);
      if (best == nullptr || best->path.empty()) continue;
      // The culprit is a transit hop on src's current best path (§2.2's
      // "AS where the failed traceroute terminated").
      std::vector<AsId> hops;
      for (const AsId hop : best->path.get()) {
        if (hop != src && hop != origin) hops.push_back(hop);
      }
      if (hops.empty()) continue;
      const AsId culprit =
          hops[rng.uniform_u32(static_cast<std::uint32_t>(hops.size()))];
      ++outages;
      if (oracle.reachable(src, origin, topo::Avoidance::of_as(culprit))) {
        ++with_alternate;
      }
    }
  }
  const double frac =
      outages == 0 ? 0.0
                   : static_cast<double>(with_alternate) /
                         static_cast<double>(outages);
  bench::compare_row("outages with policy-compliant alternate", "~90%",
                     std::to_string(static_cast<int>(frac * 100.0)) + "%",
                     "(existence per oracle; the 49% splice-detection rate "
                     "is bench/sec2_2)");
  bench::kv("sampled outages", std::to_string(outages));
  jr->set_config("alternate_samples", static_cast<double>(kSamples));
  jr->headline("alternate_fraction", frac);

  // ---- nondeterministic readings: stderr only ----
  const double peak_mb =
      static_cast<double>(mem::peak_rss_bytes()) / (1024.0 * 1024.0);
  std::fprintf(stderr, "[internet_scale] peak RSS %.1f MB\n", peak_mb);
  if (std::getenv("LG_RSS_CEILING_MB") != nullptr) {
    const double limit = util::env_double_knob("LG_RSS_CEILING_MB", 0.0, 0.0);
    if (limit > 0.0 && peak_mb > limit) {
      std::fprintf(stderr,
                   "[internet_scale] FAIL: peak RSS %.1f MB exceeds "
                   "LG_RSS_CEILING_MB=%.1f\n",
                   peak_mb, limit);
      return 1;
    }
    std::fprintf(stderr, "[internet_scale] RSS ceiling %.1f MB: ok\n", limit);
  }
  return 0;
}
