// Ablation / future-work bench (§3, §9): poisoning — the deployable
// approximation — head-to-head against the AVOID_PROBLEM(X, P) primitive the
// paper argues BGP should grow. Same topology, same "broken" ASes; compare:
//   * avoidance: how many ASes move off the problem AS,
//   * backup: how many ASes lose the prefix entirely (captives),
//   * churn: update messages generated per event,
//   * notification: does the problem AS learn it is being avoided?
#include <cstdio>

#include "bench/bench_util.h"
#include "util/stats.h"
#include "workload/poison_experiment.h"
#include "workload/sim_world.h"

using namespace lg;
using topo::AsId;

namespace {

struct EventStats {
  util::Summary moved;      // ASes whose traffic left the target
  util::Summary cut_off;    // ASes with no route to the production prefix
  util::Summary messages;   // update messages per event
  std::size_t notified = 0; // events where the target AS was notified
  std::size_t events = 0;
};

}  // namespace

int main() {
  bench::header("AVOID_PROBLEM primitive vs BGP poisoning",
                "What the paper's proposed primitive would buy (§3, §9)");
  bench::JsonReport jr("avoid_problem_primitive");
  jr->set_config("max_problem_events", 20.0);

  workload::SimWorld world;
  AsId origin = world.topology().first_multihomed_stub();
  const auto prefix = topo::AddressPlan::production_prefix(origin);

  const auto announce = [&](std::optional<bgp::AvoidHint> hint,
                            std::optional<AsId> poison) {
    bgp::OriginPolicy policy;
    policy.default_path =
        poison ? bgp::poisoned_path(origin, {*poison}, 3)
               : bgp::baseline_path(origin, 3);
    policy.avoid_hint = hint;
    world.engine().originate(origin, prefix, policy);
    world.converge();
  };
  announce(std::nullopt, std::nullopt);

  // Harvest transit targets on paths toward the origin.
  workload::PoisonExperiment harvester(world, origin);
  std::vector<AsId> feeds = world.feed_ases(25);
  for (const AsId as : world.stub_vantage_ases(40)) {
    if (as != origin) feeds.push_back(as);
  }
  const auto targets = harvester.harvest_poison_candidates(feeds);
  // Note: the harvester announced its own baseline for the same prefix; put
  // ours back.
  announce(std::nullopt, std::nullopt);

  EventStats poison_stats;
  EventStats primitive_stats;

  std::size_t n = 0;
  for (const AsId target : targets) {
    if (n++ >= 20) break;

    // Who routes through the target pre-event?
    std::vector<AsId> via;
    for (const AsId as : world.graph().as_ids()) {
      if (const auto* r = world.engine().best_route(as, prefix)) {
        if (bgp::path_traverses(r->path, target, origin)) via.push_back(as);
      }
    }
    if (via.empty()) continue;

    const auto run_event = [&](bool use_primitive, EventStats& stats) {
      world.engine().reset_counters();
      const auto notified_before =
          world.engine().speaker(target).avoid_notifications();
      if (use_primitive) {
        announce(bgp::AvoidHint{.as = target}, std::nullopt);
      } else {
        announce(std::nullopt, target);
      }
      std::size_t moved = 0;
      std::size_t cut = 0;
      for (const AsId as : world.graph().as_ids()) {
        if (as == origin) continue;
        const auto* r = world.engine().best_route(as, prefix);
        if (r == nullptr) {
          ++cut;
          continue;
        }
        if (std::find(via.begin(), via.end(), as) != via.end() &&
            !bgp::path_traverses(r->path, target, origin) && as != target) {
          ++moved;
        }
      }
      stats.moved.add(static_cast<double>(moved));
      stats.cut_off.add(static_cast<double>(cut));
      stats.messages.add(static_cast<double>(world.engine().total_messages()));
      if (use_primitive &&
          world.engine().speaker(target).avoid_notifications() >
              notified_before) {
        ++stats.notified;
      }
      ++stats.events;
      announce(std::nullopt, std::nullopt);  // revert
    };

    run_event(/*use_primitive=*/false, poison_stats);
    run_event(/*use_primitive=*/true, primitive_stats);
  }

  bench::section("Per-event averages over " +
                 std::to_string(poison_stats.events) + " problem events");
  std::printf("  %-34s %-14s %-14s\n", "", "poisoning", "AVOID_PROBLEM");
  std::printf("  %-34s %-14.1f %-14.1f\n", "ASes moved off the problem AS",
              poison_stats.moved.mean(), primitive_stats.moved.mean());
  std::printf("  %-34s %-14.1f %-14.1f\n", "ASes cut off from the prefix",
              poison_stats.cut_off.mean(), primitive_stats.cut_off.mean());
  std::printf("  %-34s %-14.1f %-14.1f\n", "update messages per event",
              poison_stats.messages.mean(), primitive_stats.messages.mean());
  std::printf("  %-34s %-14s %-14s\n", "problem AS notified",
              "border routers log the poison",
              primitive_stats.notified == primitive_stats.events ? "always"
                                                                 : "sometimes");

  jr->headline("events", static_cast<double>(poison_stats.events));
  jr->headline("ases_moved_poisoning", poison_stats.moved.mean());
  jr->headline("ases_moved_primitive", primitive_stats.moved.mean());
  jr->headline("ases_cut_off_poisoning", poison_stats.cut_off.mean());
  jr->headline("ases_cut_off_primitive", primitive_stats.cut_off.mean());
  jr->headline("messages_per_event_poisoning", poison_stats.messages.mean());
  jr->headline("messages_per_event_primitive", primitive_stats.messages.mean());

  bench::section("Reading");
  std::printf(
      "  The primitive achieves the same avoidance with no captive cut-offs\n"
      "  (no sentinel needed) and comparable churn — the paper's argument\n"
      "  that a first-class AVOID_PROBLEM mechanism (or MIRO-style paths)\n"
      "  deserves protocol support; poisoning is its deployable shadow.\n");
  return 0;
}
