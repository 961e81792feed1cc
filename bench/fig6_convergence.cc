// Figure 6 reproduction — convergence after poisoned announcements, split by
// (prepend vs no-prepend baseline) x (peer had to change paths vs not).
//
// Paper: with the O-O-O baseline, >95% of unaffected peers converge
// instantly (97% with a single update) and 99% within 50 s; without
// prepending only ~70% converge instantly (64% single-update). Affected
// peers: 96% within 50 s (prepend) vs 86% (no prepend). Global convergence:
// medians 91 s vs 133 s, 90th percentiles 200 s vs 226 s.
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

struct Series {
  util::EmpiricalCdf convergence;   // seconds per peer
  std::size_t peers = 0;
  std::size_t instant = 0;          // convergence == 0 (single update)
  std::size_t single_update = 0;
};

struct RunResult {
  Series changed;    // peers that had been routing via the poisoned AS
  Series unchanged;  // everyone else
  util::EmpiricalCdf global_convergence;
};

RunResult run_cell(std::size_t prepend, std::uint64_t seed, double mrai = 30.0) {
  workload::SimWorld world([&] {
    auto cfg = workload::SimWorldConfig{};
    cfg.topology.seed = seed;
    cfg.engine.seed = seed + 1;
    cfg.engine.default_mrai = mrai;
    return cfg;
  }());
  AsId origin = world.topology().first_multihomed_stub();
  workload::PoisonExperimentConfig cfg;
  cfg.baseline_prepend = prepend;
  workload::PoisonExperiment experiment(world, origin, cfg);
  experiment.setup();
  const auto feeds = world.feed_ases(40);
  const auto candidates = experiment.harvest_poison_candidates(feeds);

  RunResult result;
  std::size_t n = 0;
  for (const AsId target : candidates) {
    if (n++ >= 30) break;
    const auto outcome = experiment.poison_and_measure(target, feeds);
    for (const auto& peer : outcome.peers) {
      if (peer.update_count == 0) continue;
      Series& series =
          peer.routed_via_poisoned_before ? result.changed : result.unchanged;
      ++series.peers;
      series.convergence.add(peer.convergence_seconds);
      if (peer.convergence_seconds == 0.0) ++series.instant;
      if (peer.update_count == 1) ++series.single_update;
    }
    result.global_convergence.add(outcome.global_convergence_seconds);
  }
  return result;
}

void print_series(const char* name, const Series& s) {
  if (s.peers == 0) {
    std::printf("  %-28s (no samples)\n", name);
    return;
  }
  std::printf("  %-28s n=%-6zu instant=%-7s 1-update=%-7s p50=%-7.1fs "
              "p95=%-7.1fs p99=%-7.1fs\n",
              name, s.peers,
              util::pct(static_cast<double>(s.instant) /
                        static_cast<double>(s.peers))
                  .c_str(),
              util::pct(static_cast<double>(s.single_update) /
                        static_cast<double>(s.peers))
                  .c_str(),
              s.convergence.quantile(0.5), s.convergence.quantile(0.95),
              s.convergence.quantile(0.99));
}

}  // namespace

int main() {
  bench::header("Figure 6 / Table 1 'Disruptiveness'",
                "Peer convergence time after poisoned announcements");
  bench::JsonReport jr("fig6_convergence");
  jr->set_config("seed", 42.0);
  jr->set_config("poisonings_per_run", 30.0);
  jr->set_config("feed_ases", 40.0);

  // One trial per (prepend, MRAI) cell on lg::run::TrialRunner. Every cell
  // keeps the fixed seed 42 the serial harness used, so the numbers are
  // unchanged; the runner only buys wall-clock and per-trial metric sinks.
  struct Cell {
    std::size_t prepend;
    double mrai;
  };
  const std::vector<Cell> cells = {
      {3, 30.0}, {1, 30.0}, {1, 5.0}, {1, 30.0}, {1, 60.0}};
  run::TrialRunner runner;
  std::vector<RunResult> results;
  {
    bench::WallClock wc("fig6_convergence", cells.size(), runner.threads());
    results = runner.run(cells.size(), [&](run::TrialContext& ctx) {
      return run_cell(cells[ctx.index].prepend, 42, cells[ctx.index].mrai);
    });
  }
  const auto& prep = results[0];
  const auto& noprep = results[1];

  bench::section("Per-peer convergence (seconds)");
  print_series("Prepend, no change", prep.unchanged);
  print_series("No prepend, no change", noprep.unchanged);
  print_series("Prepend, change", prep.changed);
  print_series("No prepend, change", noprep.changed);

  bench::section("Paper anchors");
  auto frac_within = [](const Series& s, double secs) {
    return s.peers ? util::pct(s.convergence.cdf(secs)) : std::string("n/a");
  };
  bench::compare_row("unaffected peers converging instantly (prepend)",
                     ">95%",
                     prep.unchanged.peers
                         ? util::pct(static_cast<double>(prep.unchanged.instant) /
                                     static_cast<double>(prep.unchanged.peers))
                         : "n/a");
  bench::compare_row("unaffected peers converging instantly (no prepend)",
                     "<70%",
                     noprep.unchanged.peers
                         ? util::pct(static_cast<double>(noprep.unchanged.instant) /
                                     static_cast<double>(noprep.unchanged.peers))
                         : "n/a");
  bench::compare_row("unaffected single-update (prepend)", "97%",
                     prep.unchanged.peers
                         ? util::pct(static_cast<double>(prep.unchanged.single_update) /
                                     static_cast<double>(prep.unchanged.peers))
                         : "n/a");
  bench::compare_row("unaffected single-update (no prepend)", "64%",
                     noprep.unchanged.peers
                         ? util::pct(static_cast<double>(noprep.unchanged.single_update) /
                                     static_cast<double>(noprep.unchanged.peers))
                         : "n/a");
  bench::compare_row("affected peers converged within 50 s (prepend)", "96%",
                     frac_within(prep.changed, 50.0));
  bench::compare_row("affected peers converged within 50 s (no prepend)",
                     "86%", frac_within(noprep.changed, 50.0));

  bench::section("Global convergence (first update to last, per poisoning)");
  bench::compare_row("median (prepend)", "<=91 s",
                     util::fixed(prep.global_convergence.quantile(0.5), 0) + " s");
  bench::compare_row("75th pct (prepend)", "<=120 s",
                     util::fixed(prep.global_convergence.quantile(0.75), 0) + " s");
  bench::compare_row("90th pct (prepend)", "<=200 s",
                     util::fixed(prep.global_convergence.quantile(0.9), 0) + " s");
  bench::compare_row("median (no prepend)", "133 s",
                     util::fixed(noprep.global_convergence.quantile(0.5), 0) + " s");
  bench::compare_row("90th pct (no prepend)", "226 s",
                     util::fixed(noprep.global_convergence.quantile(0.9), 0) + " s");

  jr->headline("global_convergence_p50_prepend_s",
               prep.global_convergence.quantile(0.5));
  jr->headline("global_convergence_p90_prepend_s",
               prep.global_convergence.quantile(0.9));
  jr->headline("global_convergence_p50_noprepend_s",
               noprep.global_convergence.quantile(0.5));
  jr->headline("global_convergence_p90_noprepend_s",
               noprep.global_convergence.quantile(0.9));
  if (prep.unchanged.peers) {
    jr->headline("unaffected_instant_frac_prepend",
                 static_cast<double>(prep.unchanged.instant) /
                     static_cast<double>(prep.unchanged.peers));
  }
  if (noprep.unchanged.peers) {
    jr->headline("unaffected_instant_frac_noprepend",
                 static_cast<double>(noprep.unchanged.instant) /
                     static_cast<double>(noprep.unchanged.peers));
  }

  // Ablation: MRAI drives the convergence timescale (DESIGN.md decision 1).
  // Path exploration without prepending is paced by the per-session
  // advertisement interval; shrinking it compresses convergence, growing it
  // stretches it — absolute numbers in this repo scale with this knob.
  bench::section("Ablation: MRAI sweep (no-prepend runs)");
  for (std::size_t i = 2; i < cells.size(); ++i) {
    const double mrai = cells[i].mrai;
    const auto& ablation = results[i];
    std::printf("  MRAI=%4.0fs  global convergence p50=%6.1fs p90=%6.1fs  "
                "unaffected single-update=%s\n",
                mrai, ablation.global_convergence.quantile(0.5),
                ablation.global_convergence.quantile(0.9),
                ablation.unchanged.peers
                    ? util::pct(static_cast<double>(
                                    ablation.unchanged.single_update) /
                                static_cast<double>(ablation.unchanged.peers))
                          .c_str()
                    : "n/a");
  }
  return 0;
}
