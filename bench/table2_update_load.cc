// Table 2 reproduction — Internet-wide update load induced by poisoning at
// scale: additional daily path changes per router for varying deployment
// fraction I, monitored fraction T, and poisoning delay d. U (updates per
// router per poison) is *measured* from our own convergence experiments
// before the analytic table is printed, exactly as §5.4 derives it from
// §5.2's measurements.
#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "run/trial_runner.h"
#include "util/stats.h"
#include "workload/load_model.h"
#include "workload/outages.h"
#include "workload/poison_experiment.h"
#include "workload/sim_world.h"

using namespace lg;
using topo::AsId;

namespace {

constexpr std::size_t kPoisonBatches = 2;
constexpr std::size_t kPoisonsPerBatch = 5;

// One batch of U measurements: a fresh (deterministic, identical) SimWorld,
// poison this batch's slice of the harvested candidates, return the per-
// poison averages in candidate order. Runs on the trial runner, so the two
// world convergences overlap on multi-core hosts.
std::vector<std::pair<double, double>> measure_u_batch(std::size_t batch) {
  workload::SimWorld world;
  AsId origin = world.topology().first_multihomed_stub();
  workload::PoisonExperiment experiment(world, origin);
  experiment.setup();
  const auto feeds = world.feed_ases(20);
  const auto candidates = experiment.harvest_poison_candidates(feeds);

  std::vector<std::pair<double, double>> out;
  const std::size_t begin = batch * kPoisonsPerBatch;
  for (std::size_t i = begin;
       i < begin + kPoisonsPerBatch && i < candidates.size(); ++i) {
    const auto outcome = experiment.poison_and_measure(candidates[i], feeds);
    out.emplace_back(outcome.avg_updates_routing_via,
                     outcome.avg_updates_not_via);
  }
  return out;
}

}  // namespace

int main() {
  bench::header("Table 2",
                "Daily path changes per router from poisoning at scale");
  bench::JsonReport jr("table2_update_load");
  jr->set_config("poisons_measured",
                 static_cast<double>(kPoisonBatches * kPoisonsPerBatch));
  jr->set_config("feed_ases", 20.0);

  // ---------------- measure U from real poisonings ----------------
  run::TrialRunner runner;
  std::vector<std::vector<std::pair<double, double>>> batches;
  {
    bench::WallClock wc("table2_update_load", kPoisonBatches,
                        runner.threads());
    batches = runner.run(kPoisonBatches, [](run::TrialContext& ctx) {
      return measure_u_batch(ctx.index);
    });
  }

  util::Summary u_via;
  util::Summary u_not_via;
  for (const auto& batch : batches) {
    for (const auto& [via, not_via] : batch) {
      u_via.add(via);
      u_not_via.add(not_via);
    }
  }

  bench::section("Measured U (path changes per router per poison)");
  bench::compare_row("routers previously routing via poisoned AS", "2.03",
                     util::fixed(u_via.mean(), 2),
                     "(>=1 is BGP's own reaction; excess is overhead)");
  bench::compare_row("routers not routing via poisoned AS", "1.07",
                     util::fixed(u_not_via.mean(), 2));
  bench::kv("U used for the table (as in the paper)", "1.0");

  // ---------------- the analytic table ----------------
  workload::LoadModel model;  // U = 1
  model.calibrate_extrapolation(workload::generate_outage_study(10308));

  bench::section("Additional daily path changes per router");
  std::printf("  %-8s | %-21s | %-21s | %-21s\n", "", "d = 5 min",
              "d = 15 min", "d = 60 min");
  std::printf("  %-8s | %-10s %-10s | %-10s %-10s | %-10s %-10s\n", "I",
              "T=0.5", "T=1.0", "T=0.5", "T=1.0", "T=0.5", "T=1.0");
  const double is[] = {0.01, 0.1, 0.5};
  for (const double i : is) {
    std::printf("  %-8.2f | %-10.0f %-10.0f | %-10.0f %-10.0f | %-10.0f %-10.0f\n",
                i, model.daily_path_changes(i, 0.5, 5),
                model.daily_path_changes(i, 1.0, 5),
                model.daily_path_changes(i, 0.5, 15),
                model.daily_path_changes(i, 1.0, 15),
                model.daily_path_changes(i, 0.5, 60),
                model.daily_path_changes(i, 1.0, 60));
  }
  std::printf("\n  Paper values:      393/783 | 137/275 | 58/115   (I=0.01)\n");
  std::printf("                   3931/7866 | 1370/2748 | 576/1154 (I=0.1)\n");
  std::printf("                 19625/39200 | 6874/13714 | 2889/5771 (I=0.5)\n");

  bench::section("Context: daily update volume at real routers");
  bench::kv("single-homed edge router",
            util::fixed(workload::kEdgeRouterDailyUpdates, 0) + "/day");
  bench::kv("tier-1 routers",
            util::fixed(workload::kTier1RouterDailyUpdatesLow, 0) + "-" +
                util::fixed(workload::kTier1RouterDailyUpdatesHigh, 0) +
                "/day");
  const double big_deploy = model.daily_path_changes(0.5, 1.0, 5);
  bench::compare_row(
      "overhead at I=0.5, T=1, d=5 on an edge router", "35%",
      util::pct(big_deploy / workload::kEdgeRouterDailyUpdates));
  const double small_deploy = model.daily_path_changes(0.01, 1.0, 5);
  bench::compare_row(
      "overhead at I=0.01 on an edge router", "<1%",
      util::pct(small_deploy / workload::kEdgeRouterDailyUpdates));
  const double tier1_large = model.daily_path_changes(0.5, 1.0, 5);
  bench::compare_row(
      "overhead at I=0.5, T=1, d=5 on a tier-1 router", "12-15%",
      util::pct(tier1_large / workload::kTier1RouterDailyUpdatesLow) + "-" +
          util::pct(tier1_large / workload::kTier1RouterDailyUpdatesHigh));

  jr->headline("u_routing_via", u_via.mean());
  jr->headline("u_not_routing_via", u_not_via.mean());
  jr->headline("daily_changes_i05_t1_d5", big_deploy);
  jr->headline("daily_changes_i001_t1_d5", small_deploy);
  return 0;
}
