// A day in the life of a LIFEGUARD deployment: monitor a fleet of targets
// while a sequence of silent failures — short transients, a persistent
// reverse-path blackhole, a persistent forward-path failure — hits the
// simulated Internet. Prints the outage ledger the operator would read the
// next morning.
//
//   ./outage_monitor
#include <cstdio>

#include "core/lifeguard.h"
#include "workload/scenarios.h"
#include "workload/sim_world.h"

using namespace lg;
using topo::AsId;

int main() {
  workload::SimWorld world(workload::SimWorld::small_config(57));

  AsId origin = world.topology().first_multihomed_stub();

  core::LifeguardConfig cfg;
  cfg.decision.min_elapsed_seconds = 300.0;
  core::Lifeguard guard(world.scheduler(), world.engine(), world.prober(),
                        origin, cfg);

  std::vector<measure::VantagePoint> helpers;
  std::vector<AsId> helper_ases;
  for (const AsId as : world.stub_vantage_ases(8)) {
    if (as == origin) continue;
    world.announce_production(as);
    helpers.push_back(measure::VantagePoint::in_as(as));
    helper_ases.push_back(as);
  }
  guard.set_helpers(helpers);

  // Monitor responsive router targets across the stub edge.
  std::size_t monitored = 0;
  for (const AsId as : world.stub_vantage_ases(20)) {
    if (as == origin) continue;
    const auto addr = topo::AddressPlan::router_address(topo::RouterId{as, 0});
    if (!world.prober().target_responds(addr)) continue;
    guard.add_target(addr);
    ++monitored;
  }
  std::printf("LIFEGUARD at AS %u monitoring %zu targets, %zu helper VPs\n\n",
              origin, monitored, helpers.size());

  guard.start();
  world.advance(1500.0);  // warm monitoring + atlas

  workload::ScenarioGenerator gen(world, 99);
  std::size_t injected = 0;

  // A failure storm across the day: alternating directions and durations.
  const core::FailureDirection dirs[] = {core::FailureDirection::kReverse,
                                         core::FailureDirection::kForward,
                                         core::FailureDirection::kReverse,
                                         core::FailureDirection::kBidirectional};
  const double durations[] = {1800.0, 2400.0, 120.0, 2000.0};  // seconds
  std::size_t shot = 0;
  for (const AsId target_as : world.stub_vantage_ases(20)) {
    if (shot >= 4) break;
    if (target_as == origin) continue;
    auto scenario =
        gen.make(origin, target_as, dirs[shot], false, helper_ases);
    if (!scenario) continue;
    std::printf("[t=%7.0fs] failure %zu: %s blackhole at AS %u affecting "
                "target AS %u (will last %.0f s)\n",
                world.scheduler().now(), shot + 1,
                core::direction_name(dirs[shot]), scenario->culprit_as,
                target_as, durations[shot]);
    ++injected;
    // Let it run for its scripted duration, then repair.
    world.advance(durations[shot]);
    gen.repair(*scenario);
    std::printf("[t=%7.0fs] failure %zu repaired by its operators\n",
                world.scheduler().now(), shot + 1);
    world.advance(900.0);  // quiet gap
    ++shot;
  }
  world.advance(1800.0);  // drain

  std::printf("\n=================== outage ledger ===================\n");
  std::printf("%-4s %-9s %-8s %-13s %-6s %-16s %-9s %-9s\n", "#", "target",
              "began", "direction", "blamed", "action", "fixed@", "note");
  std::size_t i = 0;
  using O = core::EpisodeOutcome;
  for (const auto& rec : guard.episodes()) {
    // A remediated or captive close is the moment the baseline came back.
    const bool reverted =
        rec.outcome == O::kRemediated || rec.outcome == O::kCaptive;
    std::printf("%-4zu AS %-6u %-8.0f %-13s %-6u %-16s %-9.0f %s\n", ++i,
                rec.target_as, rec.opened_at,
                core::direction_name(rec.isolation.direction),
                rec.isolation.blamed_as.value_or(0),
                core::repair_action_name(rec.action),
                reverted ? rec.closed_at : rec.repaired_at,
                rec.outcome == O::kResolvedSelf ? "self-resolved"
                                                : rec.note.c_str());
  }
  std::printf("\ninjected failures: %zu, outage records: %zu, "
              "atlas refreshes: %llu, probes spent: %llu\n",
              injected, guard.episodes().size(),
              static_cast<unsigned long long>(guard.atlas().refreshes()),
              static_cast<unsigned long long>(
                  world.prober().budget().total()));
  return 0;
}
