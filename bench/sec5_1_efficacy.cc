// §5.1 reproduction — poisoning efficacy:
//  (a) BGP-Mux-style deployment: harvest ASes from collector-peer paths,
//      poison each, and count how many peers that had routed through the
//      poisoned AS find an alternate path (paper: 77%; two-thirds of the
//      failures were poisons of a stub's only provider). Collector peers are
//      a mix of transit and edge ASes, as on RouteViews/RIS.
//  (b) Large-scale graph simulation: remove a transit AS from sampled paths
//      and test valley-free reachability (paper: 90% of 10M cases, with
//      BitTorrent-peer sources that live in multi-connected eyeball ASes).
//  (c) Cross-validation of (b) against (a) (paper: 92.5% agreement).
//  (d) Alternates around partial-outage failures like those LIFEGUARD
//      isolates (paper: 94%).
//
// Parallel structure (lg::run::TrialRunner): trial 0 runs the whole
// deployment experiment (a fully converged SimWorld plus 40 poisonings —
// world construction dominates), while the remaining trials chew through
// independent chunks of the (b)/(d) reachability samples against the shared
// read-only ValleyFreeOracle. Results merge in trial-index order, so stdout
// and the JSON report are byte-identical for any LG_THREADS value.
#include <cstdio>

#include "bench/bench_util.h"
#include "run/trial_runner.h"
#include "topology/valley_free.h"
#include "util/rng.h"
#include "workload/poison_experiment.h"
#include "workload/sim_world.h"

using namespace lg;
using topo::AsId;

namespace {

// One (peer, poison) observation from the deployment experiment, reduced to
// plain data inside trial 0 so the SimWorld never outlives its trial.
struct DeployCase {
  bool found_alternate = false;
  bool sole_provider = false;  // failure explained by poisoning a stub's
                               // only provider
  bool predicted_alternate = false;  // valley-free oracle's prediction (c)
};

struct TrialResult {
  // Filled by the deployment trial.
  std::vector<DeployCase> deploy;
  std::size_t feeds_observed = 0;
  std::size_t poisons = 0;
  // Filled by the reachability-chunk trials.
  std::size_t cases = 0;
  std::size_t with_alternate = 0;
};

constexpr std::size_t kDeployPoisons = 40;
constexpr std::size_t kSimChunks = 16;
constexpr std::size_t kSimCasesPerChunk = 3125;  // 16 * 3125 = 50,000
constexpr std::size_t kFailChunks = 12;
constexpr std::size_t kFailCasesPerChunk = 250;  // 12 * 250 = 3,000

TrialResult run_deployment_trial() {
  TrialResult result;
  workload::SimWorld world;
  AsId origin = world.topology().first_multihomed_stub();
  workload::PoisonExperiment experiment(world, origin);
  experiment.setup();

  // Collector peers: high-degree transits plus edge networks (RouteViews
  // and RIS peer with both).
  std::vector<AsId> feeds = world.feed_ases(25);
  for (const AsId as : world.stub_vantage_ases(40)) {
    if (as != origin) feeds.push_back(as);
  }
  result.feeds_observed = feeds.size();
  const auto candidates = experiment.harvest_poison_candidates(feeds);
  const topo::ValleyFreeOracle oracle(world.graph());

  for (const AsId target : candidates) {
    if (result.poisons >= kDeployPoisons) break;
    ++result.poisons;
    const auto outcome = experiment.poison_and_measure(target, feeds);
    for (const auto& peer : outcome.peers) {
      if (!peer.routed_via_poisoned_before) continue;
      DeployCase c;
      c.found_alternate = peer.has_route_after && peer.avoids_poisoned_after;
      c.sole_provider = !c.found_alternate &&
                        world.graph().providers(peer.peer).size() == 1;
      c.predicted_alternate = oracle.reachable(
          peer.peer, origin, topo::Avoidance::of_as(target));
      result.deploy.push_back(c);
    }
  }
  return result;
}

TrialResult run_sim_chunk(const topo::GeneratedTopology& bigtopo,
                          const topo::ValleyFreeOracle& oracle,
                          const std::vector<AsId>& sources,
                          std::uint64_t seed) {
  TrialResult result;
  util::Rng rng(seed, 0x35313131ULL);
  while (result.cases < kSimCasesPerChunk) {
    const AsId src = rng.pick(sources);
    const AsId dst = rng.pick(bigtopo.stubs);
    if (src == dst) continue;
    const auto path = oracle.shortest_path(src, dst);
    if (path.size() <= 3) continue;  // need a transit beyond dst's provider
    // Iterate transit ASes except the destination's immediate provider
    // (a single-homed destination can never avoid its provider).
    for (std::size_t i = 1; i + 2 < path.size(); ++i) {
      const AsId poisoned = path[i];
      ++result.cases;
      if (oracle.reachable(src, dst, topo::Avoidance::of_as(poisoned))) {
        ++result.with_alternate;
      }
      if (result.cases >= kSimCasesPerChunk) break;
    }
  }
  return result;
}

TrialResult run_failure_chunk(const topo::GeneratedTopology& bigtopo,
                              const topo::ValleyFreeOracle& oracle,
                              const std::vector<AsId>& sources,
                              std::uint64_t seed) {
  TrialResult result;
  util::Rng rng(seed, 0x6661696cULL);
  while (result.cases < kFailCasesPerChunk) {
    const AsId src = rng.pick(sources);
    const AsId dst = rng.pick(bigtopo.stubs);
    if (src == dst) continue;
    const auto path = oracle.shortest_path(src, dst);
    if (path.size() <= 3) continue;
    const auto idx =
        1 + rng.uniform_u32(static_cast<std::uint32_t>(path.size() - 2));
    const AsId culprit = path[idx];
    if (bigtopo.graph.tier(culprit) == topo::AsTier::kStub) continue;
    // Partial-outage criterion: some other vantage still reaches dst.
    const AsId witness = rng.pick(sources);
    if (witness == src || witness == dst) continue;
    if (!oracle.reachable(witness, dst, topo::Avoidance::of_as(culprit))) {
      continue;
    }
    ++result.cases;
    if (oracle.reachable(src, dst, topo::Avoidance::of_as(culprit))) {
      ++result.with_alternate;
    }
  }
  return result;
}

}  // namespace

int main() {
  bench::header("Section 5.1 / Table 1 'Effectiveness'",
                "Do ASes find routes around a poisoned AS?");
  bench::JsonReport jr("sec5_1_efficacy");
  jr->set_config("deployment_poisons", static_cast<double>(kDeployPoisons));
  jr->set_config("sim_target_cases",
                 static_cast<double>(kSimChunks * kSimCasesPerChunk));
  jr->set_config("isolated_failure_cases",
                 static_cast<double>(kFailChunks * kFailCasesPerChunk));

  // Shared read-only inputs for the reachability chunks.
  topo::TopologyParams big;
  big.num_tier1 = 10;
  big.num_large_transit = 60;
  big.num_small_transit = 400;
  big.num_stubs = 2500;
  big.large_transit_peer_prob = 0.30;
  big.small_transit_peer_prob = 0.05;
  big.seed = 1234;
  const auto bigtopo = topo::generate_topology(big);
  const topo::ValleyFreeOracle oracle(bigtopo.graph);

  // Sources model BitTorrent peers: eyeball networks, which are multihomed
  // edge ASes or regional transits.
  std::vector<AsId> sources;
  for (const AsId as : bigtopo.stubs) {
    if (bigtopo.graph.providers(as).size() >= 2) sources.push_back(as);
  }
  const auto transits = bigtopo.transit();
  sources.insert(sources.end(), transits.begin(), transits.end());

  // Trial 0: deployment. Trials 1..kSimChunks: (b). Rest: (d).
  constexpr std::size_t kTrials = 1 + kSimChunks + kFailChunks;
  run::TrialRunner runner;
  std::vector<TrialResult> results;
  {
    bench::WallClock wc("sec5_1_efficacy", kTrials, runner.threads());
    results = runner.run(kTrials, [&](run::TrialContext& ctx) {
      if (ctx.index == 0) return run_deployment_trial();
      if (ctx.index <= kSimChunks) {
        return run_sim_chunk(bigtopo, oracle, sources, ctx.seed);
      }
      return run_failure_chunk(bigtopo, oracle, sources, ctx.seed);
    });
  }

  // ---------------- (a) deployment-style poisonings ----------------
  const TrialResult& deploy = results.front();
  std::size_t cases_using = deploy.deploy.size();
  std::size_t found_alternate = 0;
  std::size_t cut_sole_provider = 0;
  for (const auto& c : deploy.deploy) {
    if (c.found_alternate) ++found_alternate;
    if (c.sole_provider) ++cut_sole_provider;
  }

  bench::section("(a) Deployment-style poisonings");
  bench::kv("poisoned ASes", std::to_string(deploy.poisons));
  bench::kv("collector peers observed", std::to_string(deploy.feeds_observed));
  bench::kv("(peer, poison) cases with peer routing via poisoned AS",
            std::to_string(cases_using));
  bench::compare_row(
      "peers that found an alternate path", "77% (102/132)",
      cases_using ? util::pct(static_cast<double>(found_alternate) /
                              static_cast<double>(cases_using))
                  : "n/a");
  const std::size_t failures = cases_using - found_alternate;
  bench::compare_row(
      "failures where we poisoned a stub's only provider", "~2/3 of failures",
      failures ? util::pct(static_cast<double>(cut_sole_provider) /
                           static_cast<double>(failures))
               : "n/a (no failures)");

  // ---------------- (b) large-scale simulation ----------------
  bench::section("(b) Alternate-path existence on a large AS graph");
  std::size_t sim_cases = 0;
  std::size_t sim_alt = 0;
  for (std::size_t i = 1; i <= kSimChunks; ++i) {
    sim_cases += results[i].cases;
    sim_alt += results[i].with_alternate;
  }
  bench::kv("simulated (path, poisoned-AS) cases", std::to_string(sim_cases));
  bench::compare_row("cases with an alternate policy-compliant path",
                     "90% (of 10M)",
                     util::pct(static_cast<double>(sim_alt) /
                               static_cast<double>(sim_cases)));

  // ---------------- (c) cross-validation ----------------
  bench::section("(c) Simulation vs actual poisoning agreement");
  // For every (peer, poison) case from (a), does the valley-free simulation
  // predict the observed outcome? (Predictions were computed inside the
  // deployment trial against the deployment world's own graph.)
  std::size_t agree = 0;
  for (const auto& c : deploy.deploy) {
    if (c.found_alternate == c.predicted_alternate) ++agree;
  }
  bench::compare_row("simulation predicts actual poisoning outcome", "92.5%",
                     cases_using ? util::pct(static_cast<double>(agree) /
                                             static_cast<double>(cases_using))
                                 : "n/a");

  // ---------------- (d) failures isolated by LIFEGUARD ----------------
  // Paper: alternate paths existed for 94% of failures isolated in June
  // 2011. Those failures pass the partial-outage criteria: the destination
  // stays reachable from *somewhere* despite the culprit. Condition the
  // sample the same way.
  bench::section("(d) Alternates around isolated (partial) failures");
  std::size_t fail_cases = 0;
  std::size_t fail_alt = 0;
  for (std::size_t i = 1 + kSimChunks; i < kTrials; ++i) {
    fail_cases += results[i].cases;
    fail_alt += results[i].with_alternate;
  }
  bench::compare_row("isolated failures with alternate paths", "94%",
                     util::pct(static_cast<double>(fail_alt) /
                               static_cast<double>(fail_cases)));

  if (cases_using) {
    jr->headline("frac_peers_found_alternate",
                 static_cast<double>(found_alternate) /
                     static_cast<double>(cases_using));
  }
  jr->headline("frac_sim_cases_with_alternate",
               static_cast<double>(sim_alt) / static_cast<double>(sim_cases));
  if (cases_using) {
    jr->headline("sim_vs_actual_agreement",
                 static_cast<double>(agree) /
                     static_cast<double>(cases_using));
  }
  jr->headline("frac_isolated_failures_with_alternate",
               static_cast<double>(fail_alt) /
                   static_cast<double>(fail_cases));
  return 0;
}
