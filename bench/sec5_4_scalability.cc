// §5.4 reproduction — measurement overhead:
//  * probes per isolated outage (paper: ~280),
//  * isolation latency for reverse/bidirectional outages (paper: 140 s mean),
//  * atlas refresh cost: ~10 amortized IP-option probes + ~2 traceroutes per
//    reverse path, giving 225 paths/min average (502 peak) at the
//    deployment's probing capacity.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/isolation.h"
#include "util/stats.h"
#include "workload/scenarios.h"
#include "workload/sim_world.h"

using namespace lg;
using core::FailureDirection;
using topo::AsId;

int main() {
  bench::header("Section 5.4 / Table 1 'Scalability'",
                "Probe and latency cost of isolation and atlas refresh");
  bench::JsonReport jr("sec5_4_scalability");
  jr->set_config("vantage_points", 12.0);
  jr->set_config("max_isolations", 40.0);

  workload::SimWorld world;
  const auto vp_ases = world.stub_vantage_ases(12);
  for (const AsId as : vp_ases) world.announce_production(as);
  world.converge();

  const auto vp = measure::VantagePoint::in_as(vp_ases[0]);
  std::vector<measure::VantagePoint> helpers;
  std::vector<AsId> witnesses;
  for (std::size_t i = 1; i < vp_ases.size(); ++i) {
    helpers.push_back(measure::VantagePoint::in_as(vp_ases[i]));
    witnesses.push_back(vp_ases[i]);
  }

  // ---------------- atlas refresh cost ----------------
  bench::section("Path atlas refresh");
  core::PathAtlas atlas;
  world.prober().budget().reset();
  std::size_t refreshed_paths = 0;
  std::size_t reverse_paths = 0;
  for (const AsId target_as : world.stub_vantage_ases(60)) {
    if (target_as == vp.as) continue;
    const auto target =
        topo::AddressPlan::router_address(topo::RouterId{target_as, 0});
    refreshed_paths += static_cast<std::size_t>(
        atlas.refresh(world.prober(), vp, target, 0.0));
    if (atlas.latest_reverse(vp, target) != nullptr) ++reverse_paths;
  }
  const auto& budget = world.prober().budget();
  const double per_path_options =
      reverse_paths ? static_cast<double>(budget.option_probes) /
                          static_cast<double>(reverse_paths)
                    : 0.0;
  const double per_path_total =
      refreshed_paths ? static_cast<double>(budget.total()) /
                            static_cast<double>(refreshed_paths)
                      : 0.0;
  bench::kv("paths refreshed", std::to_string(refreshed_paths));
  bench::compare_row("amortized IP-option probes per reverse path",
                     "10 (vs 35 in [19])", util::fixed(per_path_options, 1));
  bench::kv("total probes per refreshed path (all kinds)",
            util::fixed(per_path_total, 1));
  // The deployment sustained ~5600 probes/min; at our measured per-path
  // cost that capacity yields the refresh rate below.
  const double deployment_probes_per_min = 5600.0;
  bench::compare_row(
      "refresh rate at deployment probing capacity", "225/min (502 peak)",
      util::fixed(deployment_probes_per_min / per_path_total, 0) + "/min");

  // ---------------- isolation cost ----------------
  bench::section("Isolation cost (reverse + bidirectional candidates)");
  workload::ScenarioGenerator gen(world, 4242);
  util::Summary probes_per_outage;
  util::Summary seconds_per_outage;
  std::size_t isolations = 0;
  core::IsolationEngine engine(world.prober(), atlas);
  for (const AsId target_as : world.topology().stubs) {
    if (isolations >= 40) break;
    if (target_as == vp.as) continue;
    auto scenario = gen.make(vp.as, target_as, FailureDirection::kReverse,
                             false, witnesses);
    if (!scenario) continue;
    const auto failure_ids = scenario->failure_ids;
    scenario->failure_ids.clear();
    for (const auto id : failure_ids) world.failures().clear(id);
    atlas.refresh(world.prober(), vp, scenario->target, 0.0);
    scenario->failure_ids.push_back(world.failures().inject(dp::Failure{
        .at_as = scenario->culprit_as, .toward_as = vp.as}));

    const auto result = engine.isolate(vp, scenario->target, helpers);
    ++isolations;
    probes_per_outage.add(static_cast<double>(result.probes_used));
    seconds_per_outage.add(result.modeled_seconds);
    gen.repair(*scenario);
  }
  bench::kv("isolated outages", std::to_string(isolations));
  bench::compare_row("probe packets per isolated outage", "~280",
                     util::fixed(probes_per_outage.mean(), 0));
  bench::compare_row("isolation latency (reverse outages, mean)", "140 s",
                     util::fixed(seconds_per_outage.mean(), 0) + " s");
  bench::kv("isolation latency min/max",
            util::fixed(seconds_per_outage.min(), 0) + " s / " +
                util::fixed(seconds_per_outage.max(), 0) + " s");

  // ---------------- convergence scalability (frontier pump) ----------------
  // Growing worlds, ~20 stub origins announcing at t=0 so every delivery
  // quantum carries work for many receivers. Simulation results (messages,
  // convergence sim-time) are deterministic and land in stdout + JSON;
  // wall-clock goes to stderr only, so this report stays byte-diffable
  // across runs.
  bench::section("Convergence scalability (frontier pump)");
  for (const std::uint32_t stubs : {150u, 400u, 800u}) {
    workload::SimWorldConfig cfg;
    cfg.topology.num_stubs = stubs;
    cfg.topology.seed = 5400 + stubs;
    cfg.engine.seed = 5400 + stubs;
    cfg.announce_infrastructure = false;
    workload::SimWorld w(cfg);
    const auto& all_stubs = w.topology().stubs;
    const std::size_t stride = all_stubs.size() / 20;
    for (std::size_t i = 0; i < 20; ++i) {
      const AsId origin = all_stubs[i * stride];
      bgp::OriginPolicy policy;
      policy.default_path = bgp::AsPath{origin};
      w.engine().originate(
          origin, topo::AddressPlan::production_prefix(origin), policy);
    }
    const auto wall_start = std::chrono::steady_clock::now();
    w.converge();
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
    const std::string cell = "stubs=" + std::to_string(stubs);
    bench::kv(cell + " converge",
              std::to_string(w.graph().num_ases()) + " ases, " +
                  std::to_string(w.engine().total_messages()) +
                  " updates, quiesced at t=" +
                  util::fixed(w.engine().last_activity_time(), 1) + " s");
    jr->headline("convergence_updates_" + cell,
                 static_cast<double>(w.engine().total_messages()));
    jr->headline("convergence_simtime_s_" + cell,
                 w.engine().last_activity_time());
    std::fprintf(stderr, "[sec5_4] %s converge wall=%.2f s\n", cell.c_str(),
                 wall_s);
  }

  jr->headline("amortized_option_probes_per_reverse_path", per_path_options);
  jr->headline("total_probes_per_refreshed_path", per_path_total);
  jr->headline("probes_per_isolated_outage", probes_per_outage.mean());
  jr->headline("isolation_latency_mean_s", seconds_per_outage.mean());
  return 0;
}
