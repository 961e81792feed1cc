// §7.1 reproduction — poisoning anomalies and countermeasures:
//  * ASes that allow one occurrence of their own ASN (AS286-style): a
//    single poison is ignored, a double poison (O-A-A-O) works;
//  * ASes that disable loop detection entirely: unpoisonable (stubs only in
//    practice — and stubs never need poisoning);
//  * Cogent-style peer filters: customers' announcements carrying a peer of
//    the filtering AS are dropped, shrinking poisoning's reach (paper: via
//    other providers, 76% of collector peers still found alternates);
//  * sentinel ablation: captives keep/lose backup connectivity.
//
// Parallel structure (lg::run::TrialRunner): trial 0 runs the
// order-dependent anomaly sequence (a)/(b)/(d) on its own world; the filter
// study (c) is split into batches, each measuring two poison targets
// before/after installing the peer filter on a fresh — deterministic, hence
// identical — world. Merged in index order: output is byte-identical for
// any LG_THREADS value.
#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "run/trial_runner.h"
#include "workload/poison_experiment.h"
#include "workload/sim_world.h"

using namespace lg;
using topo::AsId;

namespace {

constexpr std::size_t kFilterBatches = 4;
constexpr std::size_t kTargetsPerBatch = 2;

// Fraction of feed peers that had routed via `target` and found an
// alternate after poisoning.
double alternate_fraction(workload::PoisonExperiment& experiment,
                          const std::vector<AsId>& feeds, AsId target) {
  const auto outcome = experiment.poison_and_measure(target, feeds);
  std::size_t using_target = 0;
  std::size_t found = 0;
  for (const auto& peer : outcome.peers) {
    if (!peer.routed_via_poisoned_before) continue;
    ++using_target;
    if (peer.has_route_after && peer.avoids_poisoned_after) ++found;
  }
  return using_target == 0 ? -1.0
                           : static_cast<double>(found) /
                                 static_cast<double>(using_target);
}

struct TrialResult {
  // Trial 0: anomaly + sentinel sections.
  bool single_poison_ignored = false;
  bool double_poison_works = false;
  bool unpoisonable = false;
  std::size_t captives = 0;
  std::size_t captives_with_backup = 0;
  // Filter batches: (no-filter, with-filter) alternate fractions, negative
  // when no peer routed via the target.
  std::vector<std::pair<double, double>> filter_pairs;
};

// (a), (b), (d): order-dependent toggles on a single world.
TrialResult run_anomaly_trial() {
  TrialResult result;
  workload::SimWorld world;
  AsId origin = world.topology().first_multihomed_stub();
  workload::PoisonExperiment experiment(world, origin);
  experiment.setup();
  const auto feeds = world.feed_ases(30);
  const auto candidates = experiment.harvest_poison_candidates(feeds);
  const auto& prefix = experiment.production_prefix();

  // ---- (a) loop-threshold anomalies ----
  const AsId lenient = candidates.front();
  world.engine().speaker(lenient).mutable_config().loop_threshold = 2;

  experiment.remediator().poison(lenient);
  world.converge();
  result.single_poison_ignored =
      world.engine().best_route(lenient, prefix) != nullptr;
  experiment.remediator().poison_path({lenient, lenient});
  world.converge();
  result.double_poison_works =
      world.engine().best_route(lenient, prefix) == nullptr;
  experiment.remediator().unpoison();
  world.converge();
  world.engine().speaker(lenient).mutable_config().loop_threshold = 1;

  // ---- (b) loop detection disabled ----
  world.engine().speaker(lenient).mutable_config().loop_detection_disabled =
      true;
  experiment.remediator().poison_path({lenient, lenient, lenient});
  world.converge();
  result.unpoisonable =
      world.engine().best_route(lenient, prefix) != nullptr;
  experiment.remediator().unpoison();
  world.converge();
  world.engine().speaker(lenient).mutable_config().loop_detection_disabled =
      false;

  // ---- (d) sentinel ablation ----
  const AsId target = candidates.front();
  experiment.remediator().poison(target);
  world.converge();
  const auto origin_host = topo::AddressPlan::production_host(origin);
  for (const AsId as : world.graph().as_ids()) {
    if (as == origin) continue;
    if (world.engine().best_route(as, prefix) != nullptr) continue;
    ++result.captives;
    if (world.dataplane().forward(as, origin_host).delivered()) {
      ++result.captives_with_backup;
    }
  }
  experiment.remediator().unpoison();
  world.converge();
  return result;
}

// (c): two targets per batch, each measured without and with the peer
// filter installed at the highest-degree transit. The worlds are identical
// across batches (same deterministic config), so slicing the target list by
// batch index reproduces one sequential sweep.
TrialResult run_filter_trial(std::size_t batch) {
  TrialResult result;
  workload::SimWorld world;
  AsId origin = world.topology().first_multihomed_stub();
  workload::PoisonExperiment experiment(world, origin);
  experiment.setup();
  const auto feeds = world.feed_ases(30);
  const auto candidates = experiment.harvest_poison_candidates(feeds);
  const AsId filterer = world.feed_ases(1).front();

  std::vector<AsId> targets;
  for (std::size_t i = 1;
       i < candidates.size() &&
       targets.size() < kFilterBatches * kTargetsPerBatch;
       ++i) {
    if (candidates[i] != filterer) targets.push_back(candidates[i]);
  }
  auto& filter_flag = world.engine()
                          .speaker(filterer)
                          .mutable_config()
                          .reject_customer_routes_containing_my_peers;
  const std::size_t begin = batch * kTargetsPerBatch;
  for (std::size_t i = begin;
       i < begin + kTargetsPerBatch && i < targets.size(); ++i) {
    const double before = alternate_fraction(experiment, feeds, targets[i]);
    filter_flag = true;
    const double after = alternate_fraction(experiment, feeds, targets[i]);
    filter_flag = false;
    result.filter_pairs.emplace_back(before, after);
  }
  return result;
}

}  // namespace

int main() {
  bench::header("Section 7.1", "Poisoning anomalies and their workarounds");
  bench::JsonReport jr("sec7_1_anomalies");
  jr->set_config("feed_ases", 30.0);
  jr->set_config("filter_measurements",
                 static_cast<double>(kFilterBatches * kTargetsPerBatch));

  constexpr std::size_t kTrials = 1 + kFilterBatches;
  run::TrialRunner runner;
  std::vector<TrialResult> results;
  {
    bench::WallClock wc("sec7_1_anomalies", kTrials, runner.threads());
    results = runner.run(kTrials, [](run::TrialContext& ctx) {
      if (ctx.index == 0) return run_anomaly_trial();
      return run_filter_trial(ctx.index - 1);
    });
  }
  const TrialResult& anomalies = results.front();

  bench::section("(a) AS accepting one occurrence of its own ASN (AS286)");
  bench::compare_row("single poison ignored by lenient AS", "yes",
                     anomalies.single_poison_ignored ? "yes" : "no");
  bench::compare_row("double poison (O-A-A-O) takes effect", "yes",
                     anomalies.double_poison_works ? "yes" : "no");

  bench::section("(b) AS with loop detection disabled");
  bench::compare_row(
      "unpoisonable even with repeated ASN", "yes (stubs only in practice)",
      anomalies.unpoisonable ? "yes" : "no");

  bench::section("(c) Peer filters on customer routes (Cogent-style)");
  double unfiltered_sum = 0.0;
  double filtered_sum = 0.0;
  int measured = 0;
  for (std::size_t i = 1; i < kTrials; ++i) {
    for (const auto& [before, after] : results[i].filter_pairs) {
      if (before < 0.0 || after < 0.0) continue;
      unfiltered_sum += before;
      filtered_sum += after;
      ++measured;
    }
  }
  if (measured > 0) {
    bench::compare_row("peers finding alternates, no filter", "77%",
                       util::pct(unfiltered_sum / measured));
    bench::compare_row("peers finding alternates, with peer filter", "76%",
                       util::pct(filtered_sum / measured),
                       "(filtering narrows propagation slightly)");
  }

  bench::section("(d) Sentinel ablation: captive connectivity during poison");
  bench::kv("captive ASes while poisoned", std::to_string(anomalies.captives));
  bench::compare_row(
      "captives retaining delivery via sentinel", "all (Backup property)",
      anomalies.captives
          ? util::pct(static_cast<double>(anomalies.captives_with_backup) /
                      static_cast<double>(anomalies.captives))
          : "n/a");

  jr->headline("single_poison_ignored",
               anomalies.single_poison_ignored ? 1.0 : 0.0);
  jr->headline("double_poison_works", anomalies.double_poison_works ? 1.0 : 0.0);
  if (measured > 0) {
    jr->headline("frac_alternates_no_filter", unfiltered_sum / measured);
    jr->headline("frac_alternates_with_filter", filtered_sum / measured);
  }
  jr->headline("captive_ases", static_cast<double>(anomalies.captives));
  if (anomalies.captives) {
    jr->headline("frac_captives_with_backup",
                 static_cast<double>(anomalies.captives_with_backup) /
                     static_cast<double>(anomalies.captives));
  }
  return 0;
}
