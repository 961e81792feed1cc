// §5.2 reproduction — data-plane loss during post-poisoning convergence,
// sampled every 10 s from vantage points pinging the poisoned prefix.
//
// Paper (with the prepended O-O-O baseline): after 60% of poisonings the
// overall loss was < 1%; 98% of poisonings had loss < 2%; only 2% had any
// 10-second bin above 10% loss. The no-prepend ablation shows where that
// loss comes from: path exploration while announcement lengths change.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "run/trial_runner.h"
#include "util/stats.h"
#include "workload/poison_experiment.h"
#include "workload/sim_world.h"

using namespace lg;
using topo::AsId;

namespace {

struct LossRun {
  std::size_t poisons = 0;
  std::size_t under_1pct = 0;
  std::size_t under_2pct = 0;
  std::size_t any_bad_bin = 0;
  util::EmpiricalCdf loss_rates;
  std::size_t cut_off = 0;
};

LossRun run_cell(std::size_t prepend) {
  workload::SimWorld world;
  AsId origin = world.topology().first_multihomed_stub();
  workload::PoisonExperimentConfig cfg;
  cfg.baseline_prepend = prepend;
  cfg.measure_loss = true;
  cfg.loss_vantage_ases = world.stub_vantage_ases(40);
  workload::PoisonExperiment experiment(world, origin, cfg);
  experiment.setup();

  std::vector<AsId> feeds = world.feed_ases(25);
  for (const AsId as : world.stub_vantage_ases(60)) {
    if (as != origin) feeds.push_back(as);
  }
  const auto candidates = experiment.harvest_poison_candidates(feeds);

  LossRun result;
  for (const AsId target : candidates) {
    if (result.poisons >= 15) break;
    const auto outcome = experiment.poison_and_measure(target, feeds);
    if (!outcome.loss) continue;
    ++result.poisons;
    result.loss_rates.add(outcome.loss->overall_loss_rate);
    if (outcome.loss->overall_loss_rate < 0.01) ++result.under_1pct;
    if (outcome.loss->overall_loss_rate < 0.02) ++result.under_2pct;
    if (outcome.loss->worst_bin_loss_rate > 0.10) ++result.any_bad_bin;
    result.cut_off += outcome.loss->vantage_points_cut_off;
  }
  return result;
}

void report(const char* label, const LossRun& r, bool paper_anchors) {
  bench::section(std::string(label) + " (" + std::to_string(r.poisons) +
                 " poisonings)");
  const auto pct_of = [&](std::size_t n) {
    return r.poisons ? util::pct(static_cast<double>(n) /
                                 static_cast<double>(r.poisons))
                     : std::string("n/a");
  };
  if (paper_anchors) {
    bench::compare_row("poisonings with overall loss < 1%", "60%",
                       pct_of(r.under_1pct));
    bench::compare_row("poisonings with overall loss < 2%", "98%",
                       pct_of(r.under_2pct));
    bench::compare_row("poisonings with any 10 s bin > 10% loss", "2%",
                       pct_of(r.any_bad_bin));
  } else {
    bench::kv("poisonings with overall loss < 1%", pct_of(r.under_1pct));
    bench::kv("poisonings with overall loss < 2%", pct_of(r.under_2pct));
    bench::kv("poisonings with any 10 s bin > 10% loss",
              pct_of(r.any_bad_bin));
  }
  bench::kv("median / max overall loss",
            util::pct(r.loss_rates.quantile(0.5), 2) + " / " +
                util::pct(r.loss_rates.max(), 2));
  bench::kv("vantage points excluded as cut off", std::to_string(r.cut_off));
}

}  // namespace

int main() {
  bench::header("Section 5.2 'How much loss accompanies convergence?'",
                "Ping loss from 40 vantage points during poisoning "
                "convergence, 10 s bins");
  bench::JsonReport jr("sec5_2_loss");
  jr->set_config("loss_vantage_points", 40.0);
  jr->set_config("max_poisonings_per_run", 15.0);

  // Both configurations are independent worlds: one trial each on
  // lg::run::TrialRunner. Seeds are the defaults the serial harness used, so
  // every number is unchanged; only wall-clock improves.
  const std::vector<std::size_t> prepends = {3, 1};
  run::TrialRunner runner;
  std::vector<LossRun> results;
  {
    bench::WallClock wc("sec5_2_loss", prepends.size(), runner.threads());
    results = runner.run(prepends.size(), [&](run::TrialContext& ctx) {
      return run_cell(prepends[ctx.index]);
    });
  }
  const auto& prep = results[0];
  report("Prepended baseline O-O-O (the paper's configuration)", prep, true);

  const auto& noprep = results[1];
  report("Ablation: unprepended baseline O", noprep, false);

  jr->headline("poisonings_prepend", static_cast<double>(prep.poisons));
  if (prep.poisons) {
    jr->headline("frac_loss_under_1pct_prepend",
                 static_cast<double>(prep.under_1pct) /
                     static_cast<double>(prep.poisons));
    jr->headline("frac_loss_under_2pct_prepend",
                 static_cast<double>(prep.under_2pct) /
                     static_cast<double>(prep.poisons));
    jr->headline("median_loss_prepend", prep.loss_rates.quantile(0.5));
  }
  if (noprep.poisons) {
    jr->headline("frac_loss_under_1pct_noprepend",
                 static_cast<double>(noprep.under_1pct) /
                     static_cast<double>(noprep.poisons));
    jr->headline("median_loss_noprepend", noprep.loss_rates.quantile(0.5));
  }

  bench::section("Interpretation");
  std::printf(
      "  The prepended baseline keeps announcement length constant, so ASes\n"
      "  off the poisoned path replace their route in place and the data\n"
      "  plane never gaps; loss concentrates in the no-prepend ablation,\n"
      "  where path exploration leaves transient no-route windows.\n");
  return 0;
}
