// Robustness under injected faults — how LIFEGUARD's isolation accuracy and
// repair success hold up while the measurement and control planes degrade.
// The paper evaluates on a clean substrate; this harness sweeps the
// lg::faults intensity knob (BGP session resets, update loss/delay, probe
// loss, vantage-point dropout, plus background churn of unrelated prefixes)
// and runs the full detect -> isolate -> poison -> repair lifecycle at each
// level.
//
// Parallel structure (lg::run::TrialRunner): one trial per
// (intensity, replicate) cell, each with its own SimWorld and its own
// FaultPlane installed via ScopedFaultPlane. Per-trial fault seeds derive
// from the trial seed, so output is bit-identical per seed for any
// LG_THREADS value.
//
// Environment: LG_FAULTS=<intensity> replaces the sweep with that single
// intensity; LG_FAULTS_SEED=<n> rebases every trial's fault seed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/lifeguard.h"
#include "faults/fault_plane.h"
#include "run/trial_runner.h"
#include "util/env_knobs.h"
#include "workload/churn.h"
#include "workload/scenarios.h"
#include "workload/sim_world.h"

using namespace lg;
using core::FailureDirection;
using topo::AsId;

namespace {

constexpr std::size_t kTrialsPerIntensity = 4;
constexpr std::size_t kHelpers = 6;
constexpr std::size_t kChurnFlappers = 6;

struct TrialResult {
  bool scenario_found = false;
  bool direction_correct = false;
  bool blame_correct = false;
  bool remediated = false;
  bool repaired = false;
  bool misfire = false;  // remediation applied against the wrong AS
  double time_to_remediate = -1.0;  // detection -> action, seconds
  std::uint64_t deferrals = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t churn_flaps = 0;
  double coverage = 1.0;
};

struct IntensityRow {
  double intensity = 0.0;
  std::size_t trials = 0;
  std::size_t found = 0;
  std::size_t direction_correct = 0;
  std::size_t blame_correct = 0;
  std::size_t remediated = 0;
  std::size_t repaired = 0;
  std::size_t misfires = 0;
  double remediate_seconds_sum = 0.0;
  std::uint64_t deferrals = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t churn_flaps = 0;
  double coverage_sum = 0.0;
};

TrialResult run_trial(double intensity, std::uint64_t fault_seed_base,
                      run::TrialContext& ctx) {
  TrialResult r;
  // The plane must be current *before* the world is built: BgpEngine,
  // Prober, and Lifeguard resolve FaultPlane::current() at construction.
  faults::FaultConfig fcfg = faults::FaultConfig::at_intensity(intensity);
  fcfg.seed = fault_seed_base ^ ctx.seed;
  faults::FaultPlane plane(fcfg);
  faults::ScopedFaultPlane fault_scope(plane);

  workload::SimWorld world(workload::SimWorld::small_config(ctx.seed));
  AsId origin = world.topology().first_multihomed_stub();
  if (origin == topo::kInvalidAs) return r;

  core::LifeguardConfig cfg;
  cfg.decision.min_elapsed_seconds = 300.0;
  core::Lifeguard guard(world.scheduler(), world.engine(), world.prober(),
                        origin, cfg);

  std::vector<measure::VantagePoint> helpers;
  std::vector<AsId> helper_ases;
  for (const AsId as : world.stub_vantage_ases(kHelpers + 1)) {
    if (as == origin || helpers.size() >= kHelpers) continue;
    world.announce_production(as);
    helpers.push_back(measure::VantagePoint::in_as(as));
    helper_ases.push_back(as);
  }
  guard.set_helpers(helpers);
  guard.start();
  world.advance(700.0);  // baseline converged, one atlas round done

  // Reverse-direction scenario the decider is willing to poison for — the
  // same selection rule as the Lifeguard integration test.
  workload::ScenarioGenerator gen(world, ctx.seed ^ 0x73636eULL);
  std::optional<workload::FailureScenario> scenario;
  for (const AsId target_as : world.topology().stubs) {
    if (target_as == origin) continue;
    auto s = gen.make(origin, target_as, FailureDirection::kReverse, false,
                      helper_ases);
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
  if (!scenario) return r;
  r.scenario_found = true;
  gen.repair(*scenario);

  // Background churn on prefixes unrelated to the experiment. Excluded:
  // everyone whose announcements the experiment depends on.
  workload::ChurnConfig ccfg;
  ccfg.flappers = kChurnFlappers;
  ccfg.mean_period_seconds = 180.0;
  ccfg.seed = ctx.seed ^ 0x636875726eULL;
  ccfg.stop_at = 5000.0;
  workload::ChurnWorkload churn(world, ccfg);
  std::vector<AsId> exclude = helper_ases;
  exclude.push_back(origin);
  exclude.push_back(scenario->target_as);
  exclude.push_back(scenario->culprit_as);
  churn.start(exclude);

  guard.add_target(scenario->target);
  world.advance(1300.0);  // monitoring + atlas rounds with healthy paths

  scenario->failure_ids.push_back(world.failures().inject(
      dp::Failure{.at_as = scenario->culprit_as, .toward_as = origin}));
  // Long enough for detection + isolation + (degraded: deferred) decision.
  world.advance(2400.0);

  if (!guard.episodes().empty()) {
    const auto& rec = guard.episodes().front();
    r.direction_correct =
        rec.isolation.direction == FailureDirection::kReverse;
    r.blame_correct = rec.isolation.blamed_as == scenario->culprit_as;
    r.remediated = rec.action != core::RepairAction::kNone;
    r.misfire = r.remediated && !r.blame_correct;
    if (rec.remediated_at >= 0.0) {
      r.time_to_remediate = rec.remediated_at - rec.detected_at;
    }
  }

  // Operator fixes the underlying problem; did the sentinel notice and
  // revert within a few checks?
  gen.repair(*scenario);
  world.advance(600.0);
  r.repaired =
      !guard.episodes().empty() && guard.episodes().front().repaired_at > 0.0;

  r.deferrals =
      ctx.metrics->counter("lg.lifeguard.decisions_deferred").value();
  r.faults_injected = plane.injected();
  r.churn_flaps = churn.flaps();
  r.coverage = guard.probe_coverage();
  return r;
}

}  // namespace

int main() {
  bench::header("Section 7 extension — robustness under faults",
                "Isolation accuracy and repair success vs fault intensity");
  bench::JsonReport jr("sec7_robustness");

  std::vector<double> intensities = {0.0, 0.25, 0.5, 0.75, 1.0};
  if (const char* v = std::getenv("LG_FAULTS")) {
    if (std::strcmp(v, "off") != 0) {
      intensities = {util::env_fraction_knob("LG_FAULTS", 0.0)};
    }
  }
  const std::uint64_t fault_seed_base =
      util::env_u64_knob("LG_FAULTS_SEED", 0x666c7453ULL);  // "fltS"
  jr->set_config("intensities", static_cast<double>(intensities.size()));
  jr->set_config("trials_per_intensity",
                 static_cast<double>(kTrialsPerIntensity));
  jr->set_config("churn_flappers", static_cast<double>(kChurnFlappers));

  const std::size_t n = intensities.size() * kTrialsPerIntensity;
  run::TrialRunner runner;
  std::vector<TrialResult> results;
  {
    bench::WallClock wc("sec7_robustness", n, runner.threads());
    results = runner.run(n, [&](run::TrialContext& ctx) {
      const double intensity = intensities[ctx.index / kTrialsPerIntensity];
      return run_trial(intensity, fault_seed_base, ctx);
    });
  }

  std::vector<IntensityRow> rows(intensities.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    IntensityRow& row = rows[i / kTrialsPerIntensity];
    const TrialResult& t = results[i];
    row.intensity = intensities[i / kTrialsPerIntensity];
    ++row.trials;
    if (!t.scenario_found) continue;
    ++row.found;
    row.direction_correct += t.direction_correct ? 1 : 0;
    row.blame_correct += t.blame_correct ? 1 : 0;
    row.remediated += t.remediated ? 1 : 0;
    row.repaired += t.repaired ? 1 : 0;
    row.misfires += t.misfire ? 1 : 0;
    if (t.time_to_remediate >= 0.0) {
      row.remediate_seconds_sum += t.time_to_remediate;
    }
    row.deferrals += t.deferrals;
    row.faults_injected += t.faults_injected;
    row.churn_flaps += t.churn_flaps;
    row.coverage_sum += t.coverage;
  }

  bench::section("Accuracy and repair success vs fault intensity");
  std::printf("  %-10s %-7s %-9s %-9s %-10s %-9s %-9s %-7s %-9s %-12s\n",
              "intensity", "found", "dir ok", "blame ok", "remediate",
              "repaired", "misfires", "defer", "coverage", "mean t_rem");
  for (const IntensityRow& row : rows) {
    std::printf(
        "  %-10.2f %zu/%-5zu %-9zu %-9zu %-10zu %-9zu %-9zu %-7llu %-9.2f %-12s\n",
        row.intensity, row.found, row.trials, row.direction_correct,
        row.blame_correct, row.remediated, row.repaired, row.misfires,
        static_cast<unsigned long long>(row.deferrals),
        row.found ? row.coverage_sum / static_cast<double>(row.found) : 1.0,
        row.remediated
            ? (std::to_string(static_cast<int>(
                   row.remediate_seconds_sum /
                   static_cast<double>(row.remediated))) +
               " s")
                  .c_str()
            : "n/a");
  }

  bench::section("Fault volume");
  for (const IntensityRow& row : rows) {
    std::printf("  intensity %-6.2f faults injected %-8llu churn flaps %llu\n",
                row.intensity,
                static_cast<unsigned long long>(row.faults_injected),
                static_cast<unsigned long long>(row.churn_flaps));
  }

  for (const IntensityRow& row : rows) {
    if (row.found == 0) continue;
    const std::string suffix = std::to_string(row.intensity).substr(0, 4);
    const double found = static_cast<double>(row.found);
    jr->headline("frac_blame_correct_at_" + suffix,
                 static_cast<double>(row.blame_correct) / found);
    jr->headline("frac_repaired_at_" + suffix,
                 static_cast<double>(row.repaired) / found);
    jr->headline("misfires_at_" + suffix, static_cast<double>(row.misfires));
    if (row.remediated > 0) {
      jr->headline("mean_remediate_seconds_at_" + suffix,
                   row.remediate_seconds_sum /
                       static_cast<double>(row.remediated));
    }
  }
  return 0;
}
