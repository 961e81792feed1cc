// Repair under an adversarial Internet — how LIFEGUARD's poisoning-based
// repair holds up when a fraction of ASes run hostile policies
// (lg::adversary): path-length filters that reject the longer post-poison
// paths, default-routed stubs that keep forwarding into the failure after
// the control plane "repaired" it, Peerlock leak filters in the core, and
// destabilizing announcers churning unrelated prefixes.
//
// Sweeps behavior prevalence and runs the full detect -> isolate -> poison
// -> escalate -> repair-or-captive lifecycle at each level. At prevalence 0
// the plane is disabled and every trial must match the cooperative
// baseline: full repair, zero misfires, zero captives.
//
// Parallel structure (lg::run::TrialRunner): one trial per
// (prevalence, replicate) cell, each with its own SimWorld and its own
// AdversaryPlane installed via ScopedAdversaryPlane. Per-trial adversary
// seeds derive from the trial seed, so output is bit-identical per seed for
// any LG_THREADS value.
//
// Environment: LG_ADVERSARY=<prevalence> replaces the sweep with that
// single prevalence; LG_ADVERSARY_SEED=<n> rebases every trial's adversary
// seed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "adversary/adversary_plane.h"
#include "bench/bench_util.h"
#include "core/lifeguard.h"
#include "run/trial_runner.h"
#include "util/env_knobs.h"
#include "workload/destabilizer.h"
#include "workload/scenarios.h"
#include "workload/sim_world.h"

using namespace lg;
using core::FailureDirection;
using topo::AsId;

namespace {

constexpr std::size_t kTrialsPerPrevalence = 4;
constexpr std::size_t kHelpers = 6;

struct TrialResult {
  bool scenario_found = false;
  bool baseline_reachable = false;  // pre-injection data-plane audit
  bool blame_correct = false;
  bool remediated = false;
  bool repaired = false;
  bool captive = false;
  bool control_plane_repaired = false;  // audited at a captive give-up
  bool misfire = false;  // remediation applied against the wrong AS
  int escalations = 0;
  std::uint64_t baseline_msgs = 0;  // updates to converge the clean world
  std::uint64_t pathlen_rejections = 0;
  std::uint64_t peerlock_rejections = 0;
  std::uint64_t destabilizer_steps = 0;
};

struct PrevalenceRow {
  double prevalence = 0.0;
  std::size_t trials = 0;
  std::size_t found = 0;
  std::size_t eligible = 0;  // baseline-reachable: repair is judged on these
  std::size_t blame_correct = 0;
  std::size_t remediated = 0;
  std::size_t repaired = 0;
  std::size_t captives = 0;
  std::size_t control_plane_repaired = 0;
  std::size_t misfires = 0;
  std::uint64_t escalations = 0;
  std::uint64_t baseline_msgs = 0;
  std::uint64_t pathlen_rejections = 0;
  std::uint64_t peerlock_rejections = 0;
  std::uint64_t destabilizer_steps = 0;
};

TrialResult run_trial(double prevalence, std::uint64_t adv_seed_base,
                      run::TrialContext& ctx) {
  TrialResult r;
  // The plane must be current *before* the world is built: BgpEngine,
  // Lifeguard, and DestabilizerWorkload resolve AdversaryPlane::current()
  // at construction.
  adversary::AdversaryConfig acfg =
      adversary::AdversaryConfig::at_prevalence(prevalence);
  acfg.seed = adv_seed_base ^ ctx.seed;
  adversary::AdversaryPlane plane(acfg);
  adversary::ScopedAdversaryPlane adv_scope(plane);

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
  r.baseline_msgs = world.engine().total_messages();

  // Reverse-direction scenario the decider is willing to poison for — the
  // same selection rule as the robustness bench.
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

  // Destabilizing announcers on prefixes unrelated to the experiment.
  workload::DestabilizerWorkloadConfig dcfg;
  dcfg.stop_at = 5000.0;
  workload::DestabilizerWorkload destab(world, dcfg);
  std::vector<AsId> exclude = helper_ases;
  exclude.push_back(origin);
  exclude.push_back(scenario->target_as);
  exclude.push_back(scenario->culprit_as);
  destab.start(exclude);

  guard.add_target(scenario->target);
  world.advance(1300.0);  // monitoring + atlas rounds with healthy paths

  // Pre-injection audit: repair success is only meaningful for targets the
  // hostile policies have not already cut off at baseline. Judging those
  // trials would misattribute a pre-existing blackhole to a failed repair
  // (and tempt the decider into a misfire on an unrelated AS).
  r.baseline_reachable =
      world.prober().ping(origin, scenario->target, guard.vantage().addr)
          .replied;
  if (!r.baseline_reachable) return r;

  scenario->failure_ids.push_back(world.failures().inject(
      dp::Failure{.at_as = scenario->culprit_as, .toward_as = origin}));
  // Long enough for detection + decision + the full escalation ladder
  // (three sentinel failures per rung, three rungs past the original).
  world.advance(3000.0);

  if (!guard.episodes().empty()) {
    const auto& rec = guard.episodes().front();
    r.blame_correct = rec.isolation.blamed_as == scenario->culprit_as;
    r.remediated = rec.action != core::RepairAction::kNone;
    r.misfire = r.remediated && !r.blame_correct;
  }

  // Operator fixes the underlying problem; did the sentinel notice and
  // revert within a few checks?
  gen.repair(*scenario);
  world.advance(600.0);
  if (!guard.episodes().empty()) {
    const auto& rec = guard.episodes().front();
    r.repaired = rec.repaired_at > 0.0;
    r.captive = rec.outcome == core::EpisodeOutcome::kCaptive;
    r.control_plane_repaired = rec.control_plane_repaired;
    r.escalations = rec.escalations;
  }

  r.pathlen_rejections = world.engine().pathlen_rejections();
  r.peerlock_rejections = world.engine().peerlock_rejections();
  r.destabilizer_steps = destab.steps_played();
  return r;
}

}  // namespace

int main() {
  bench::header("Section 8 extension — repair under an adversarial Internet",
                "Repair success, captives, and misfires vs hostile-policy "
                "prevalence");
  bench::JsonReport jr("sec8_adversarial");

  std::vector<double> prevalences = {0.0, 0.05, 0.25, 0.5, 1.0};
  if (const char* v = std::getenv("LG_ADVERSARY")) {
    if (std::strcmp(v, "off") != 0) {
      prevalences = {util::env_fraction_knob("LG_ADVERSARY", 0.0)};
    }
  }
  const std::uint64_t adv_seed_base =
      util::env_u64_knob("LG_ADVERSARY_SEED", 0x61647653ULL);  // "advS"
  jr->set_config("prevalences", static_cast<double>(prevalences.size()));
  jr->set_config("trials_per_prevalence",
                 static_cast<double>(kTrialsPerPrevalence));

  const std::size_t n = prevalences.size() * kTrialsPerPrevalence;
  run::TrialRunner runner;
  std::vector<TrialResult> results;
  {
    bench::WallClock wc("sec8_adversarial", n, runner.threads());
    results = runner.run(n, [&](run::TrialContext& ctx) {
      const double prevalence = prevalences[ctx.index / kTrialsPerPrevalence];
      return run_trial(prevalence, adv_seed_base, ctx);
    });
  }

  std::vector<PrevalenceRow> rows(prevalences.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    PrevalenceRow& row = rows[i / kTrialsPerPrevalence];
    const TrialResult& t = results[i];
    row.prevalence = prevalences[i / kTrialsPerPrevalence];
    ++row.trials;
    if (!t.scenario_found) continue;
    ++row.found;
    row.baseline_msgs += t.baseline_msgs;
    if (!t.baseline_reachable) continue;
    ++row.eligible;
    row.blame_correct += t.blame_correct ? 1 : 0;
    row.remediated += t.remediated ? 1 : 0;
    row.repaired += t.repaired ? 1 : 0;
    row.captives += t.captive ? 1 : 0;
    row.control_plane_repaired += t.control_plane_repaired ? 1 : 0;
    row.misfires += t.misfire ? 1 : 0;
    row.escalations += static_cast<std::uint64_t>(t.escalations);
    row.pathlen_rejections += t.pathlen_rejections;
    row.peerlock_rejections += t.peerlock_rejections;
    row.destabilizer_steps += t.destabilizer_steps;
  }

  bench::section("Repair success vs hostile-policy prevalence");
  std::printf("  %-10s %-7s %-9s %-9s %-10s %-9s %-9s %-9s %-9s %-7s\n",
              "prevalence", "found", "eligible", "blame ok", "remediate",
              "repaired", "captive", "cp-fixed", "misfires", "escal");
  for (const PrevalenceRow& row : rows) {
    std::printf("  %-10.2f %zu/%-5zu %-9zu %-9zu %-10zu %-9zu %-9zu %-9zu "
                "%-9zu %-7llu\n",
                row.prevalence, row.found, row.trials, row.eligible,
                row.blame_correct, row.remediated, row.repaired, row.captives,
                row.control_plane_repaired, row.misfires,
                static_cast<unsigned long long>(row.escalations));
  }

  bench::section("Adversarial pressure");
  for (const PrevalenceRow& row : rows) {
    std::printf(
        "  prevalence %-6.2f baseline msgs %-9llu pathlen rejects %-8llu "
        "peerlock rejects %-8llu destabilizer steps %llu\n",
        row.prevalence,
        static_cast<unsigned long long>(row.baseline_msgs),
        static_cast<unsigned long long>(row.pathlen_rejections),
        static_cast<unsigned long long>(row.peerlock_rejections),
        static_cast<unsigned long long>(row.destabilizer_steps));
  }

  for (const PrevalenceRow& row : rows) {
    if (row.eligible == 0) continue;
    const std::string suffix = std::to_string(row.prevalence).substr(0, 4);
    const double eligible = static_cast<double>(row.eligible);
    jr->headline("frac_repaired_at_" + suffix,
                 static_cast<double>(row.repaired) / eligible);
    jr->headline("captives_at_" + suffix, static_cast<double>(row.captives));
    jr->headline("misfires_at_" + suffix, static_cast<double>(row.misfires));
    if (row.found > 0) {
      jr->headline("mean_baseline_msgs_at_" + suffix,
                   static_cast<double>(row.baseline_msgs) /
                       static_cast<double>(row.found));
    }
  }
  return 0;
}
