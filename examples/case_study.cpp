// The paper's §6 case study, end to end: LIFEGUARD monitors a distant
// target, a silent reverse-path failure appears at a transit AS, the system
// detects it, isolates the direction and the culprit, waits out the
// transient window, poisons the culprit, BGP reconverges onto an alternate
// path, the sentinel keeps probing the broken path, and when the operator
// finally fixes the underlying problem the poison is lifted.
//
//   ./case_study
#include <cstdio>

#include "core/lifeguard.h"
#include "util/logging.h"
#include "workload/scenarios.h"
#include "workload/sim_world.h"

using namespace lg;
using topo::AsId;

int main() {
  util::Logger::instance().set_level(util::LogLevel::kInfo);

  workload::SimWorld world(workload::SimWorld::small_config(31));
  util::Logger::instance().set_time_provider(nullptr);

  // LIFEGUARD runs at a multihomed origin (the University-of-Wisconsin
  // BGP-Mux analogue).
  AsId origin = world.topology().first_multihomed_stub();
  std::printf("Origin AS %u (providers:", origin);
  for (const AsId p : world.graph().providers(origin)) std::printf(" %u", p);
  std::printf(")\n");

  core::LifeguardConfig cfg;
  cfg.decision.min_elapsed_seconds = 300.0;
  core::Lifeguard guard(world.scheduler(), world.engine(), world.prober(),
                        origin, cfg);

  // Helper vantage points (PlanetLab analogue) for spoofed probes.
  std::vector<measure::VantagePoint> helpers;
  std::vector<AsId> helper_ases;
  for (const AsId as : world.stub_vantage_ases(6)) {
    if (as == origin) continue;
    world.announce_production(as);
    helpers.push_back(measure::VantagePoint::in_as(as));
    helper_ases.push_back(as);
  }
  guard.set_helpers(helpers);
  guard.start();
  world.advance(700.0);

  // Find a target and a transit AS whose reverse-path failure LIFEGUARD is
  // willing to repair (alternate paths must exist).
  workload::ScenarioGenerator gen(world, 41);
  std::optional<workload::FailureScenario> scenario;
  for (const AsId target_as : world.topology().stubs) {
    if (target_as == origin) continue;
    auto s = gen.make(origin, target_as, core::FailureDirection::kReverse,
                      false, helper_ases);
    if (!s) continue;
    core::PoisonDecider decider(world.graph());
    const AsId sources[] = {target_as};
    if (!decider.decide(origin, s->culprit_as, 1000.0, sources).poison) {
      gen.repair(*s);
      continue;
    }
    scenario = std::move(s);
    break;
  }
  if (!scenario) {
    std::printf("no suitable scenario in this topology/seed\n");
    return 1;
  }
  gen.repair(*scenario);  // lift it while we warm the atlas

  guard.add_target(scenario->target);
  std::printf("Monitoring target %s in AS %u\n",
              topo::format_ipv4(scenario->target).c_str(),
              scenario->target_as);
  world.advance(1300.0);  // healthy monitoring + atlas rounds

  const double failure_time = world.scheduler().now();
  std::printf("\n[t=%7.0fs] *** silent reverse-path failure appears at "
              "transit AS %u (drops traffic toward AS %u) ***\n",
              failure_time, scenario->culprit_as, origin);
  scenario->failure_ids.push_back(world.failures().inject(dp::Failure{
      .at_as = scenario->culprit_as, .toward_as = origin}));

  world.advance(1500.0);

  if (guard.episodes().empty()) {
    std::printf("LIFEGUARD recorded no outage (unexpected)\n");
    return 1;
  }
  const auto& rec = guard.episodes().front();
  std::printf("\n--- LIFEGUARD timeline ---\n");
  std::printf("[t=%7.0fs] first failed ping round\n", rec.opened_at);
  std::printf("[t=%7.0fs] outage confirmed (4 consecutive failed rounds)\n",
              rec.detected_at);
  std::printf("[t=%7.0fs] isolation complete: direction=%s, blamed AS %u "
              "(%zu probes)\n",
              rec.isolated_at, core::direction_name(rec.isolation.direction),
              rec.isolation.blamed_as.value_or(0),
              static_cast<std::size_t>(rec.isolation.probes_used));
  std::printf("             traceroute alone would have suggested AS %u\n",
              rec.isolation.traceroute_blame.value_or(0));
  std::printf("[t=%7.0fs] decision: %s\n", rec.remediated_at,
              rec.verdict.reason.c_str());
  std::printf("[t=%7.0fs] action: %s of AS %u\n", rec.remediated_at,
              core::repair_action_name(rec.action),
              rec.isolation.blamed_as.value_or(0));

  const auto vp = guard.vantage();
  const bool restored =
      world.prober().ping(vp.as, scenario->target, vp.addr).replied;
  std::printf("[t=%7.0fs] production connectivity restored: %s\n",
              world.scheduler().now(), restored ? "YES" : "no");

  // Hours later, the culprit's operators fix the underlying problem.
  world.advance(3600.0);
  std::printf("\n[t=%7.0fs] *** operators repair the underlying failure ***\n",
              world.scheduler().now());
  gen.repair(*scenario);
  world.advance(400.0);

  const auto& final_rec = guard.episodes().front();
  std::printf("[t=%7.0fs] sentinel saw the original path heal\n",
              final_rec.repaired_at);
  std::printf("[t=%7.0fs] poison removed; baseline announcement restored\n",
              final_rec.closed_at);
  std::printf("\nTotal user-visible outage: ~%.0f s of a failure that "
              "persisted %.0f s\n",
              final_rec.remediated_at - final_rec.opened_at,
              final_rec.repaired_at - failure_time);
  return 0;
}
