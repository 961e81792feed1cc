#include "fleet/fuzz.h"

#include <cstdio>
#include <optional>
#include <sstream>

#include "check/invariants.h"
#include "faults/fault_plane.h"
#include "util/rng.h"

namespace lg::fleet {

namespace {

// Timestamp sanity for one closed episode. Returns an empty string when the
// record is consistent, else a short description of the first issue.
std::string record_issue(const core::EpisodeRecord& e) {
  if (e.outcome == EpisodeOutcome::kOpen) return "episode still open";
  if (e.closed_at < 0.0) return "closed outcome without closed_at";
  if (e.opened_at < 0.0 || e.detected_at < e.opened_at)
    return "detected_at precedes opened_at";
  if (e.closed_at + 1e-9 < e.detected_at) return "closed_at precedes detected_at";
  if (e.remediated_at >= 0.0 && e.remediated_at + 1e-9 < e.detected_at)
    return "remediated_at precedes detected_at";
  if (e.repaired_at >= 0.0 && e.repaired_at + 1e-9 < e.remediated_at)
    return "repaired_at precedes remediated_at";
  if (e.outcome == EpisodeOutcome::kRemediated) {
    if (e.remediated_at < 0.0) return "kRemediated without remediated_at";
    if (e.repaired_at < 0.0) return "kRemediated without repaired_at";
  }
  if (e.outcome == EpisodeOutcome::kVerifyTimeout && e.remediated_at < 0.0)
    return "kVerifyTimeout without remediated_at";
  return {};
}

}  // namespace

FleetScenarioResult run_fleet_scenario(const FleetScenarioOptions& opt) {
  FleetScenarioResult res;
  res.seed = opt.seed;

  // The fault plane must be current before the world exists: consumers
  // resolve FaultPlane::current() at construction.
  std::optional<faults::FaultPlane> plane;
  std::optional<faults::ScopedFaultPlane> scope;
  if (opt.fault_intensity > 0.0) {
    faults::FaultConfig fc =
        faults::FaultConfig::at_intensity(opt.fault_intensity);
    fc.seed = opt.seed * 0x9e3779b97f4a7c15ULL + 0x666c65ULL;
    plane.emplace(fc);
    scope.emplace(*plane);
  }

  util::Rng rng(opt.seed, 0x666c6675ULL);  // "flfu"

  workload::SimWorldConfig wc;
  wc.topology.num_tier1 = 3;
  wc.topology.num_large_transit = 6;
  wc.topology.num_small_transit = 10 + rng.uniform_u32(6);
  wc.topology.num_stubs = 24 + rng.uniform_u32(12);
  wc.topology.seed = opt.seed;
  wc.engine.seed = opt.seed + 1;
  wc.responsiveness.seed = opt.seed + 2;
  workload::SimWorld world(wc);

  AsId origin = world.topology().first_multihomed_stub();
  if (origin == topo::kInvalidAs) return res;  // vacuously clean

  std::vector<measure::VantagePoint> helpers;
  for (const AsId as : world.stub_vantage_ases(5)) {
    if (as == origin) continue;
    helpers.push_back(measure::VantagePoint::in_as(as));
    world.announce_production(as);
    if (helpers.size() == 3) break;
  }

  auto targets =
      TargetTable::enumerate(world, origin, 6 + rng.uniform_u32(10));
  res.targets = targets.size();

  // Deliberately tight budgets so deferral paths get exercised.
  AnnouncementBudget announce(30.0 / 3600.0, 2.0 + rng.uniform_u32(3));
  ProbeAdmission admission(4.0 + rng.uniform01() * 8.0, 600.0);

  EpisodeManager manager(world, origin, std::move(targets), announce,
                         admission, EpisodeConfig{});
  manager.set_helpers(std::move(helpers));
  const double horizon = 4800.0;
  manager.start(horizon);

  // Concurrent outage script: overlapping windows starting after the
  // manager's warm-up, biased toward reverse-path failures at high-degree
  // transits (the correlated many-episodes-at-once case).
  const auto culprits = world.feed_ases(12);
  const std::size_t n_out = culprits.empty() ? 0 : 1 + rng.uniform_u32(4);
  for (std::size_t i = 0; i < n_out; ++i) {
    dp::Failure f;
    f.at_as = culprits[rng.uniform_u32(
        static_cast<std::uint32_t>(culprits.size()))];
    if (rng.bernoulli(0.75)) {
      f.toward_as = origin;
    } else {
      const auto& stubs = world.topology().stubs;
      f.toward_as =
          stubs[rng.uniform_u32(static_cast<std::uint32_t>(stubs.size()))];
    }
    const double at = 900.0 + rng.uniform01() * 1500.0;
    const double duration = 300.0 + rng.uniform01() * 1500.0;
    world.scheduler().at(at, [&world, f, duration] {
      const auto id = world.failures().inject(f);
      world.scheduler().after(duration,
                              [&world, id] { world.failures().clear(id); });
    });
  }
  res.outages = n_out;

  world.advance(horizon);
  world.converge();

  res.episodes = manager.episodes().size();
  res.open_at_end = manager.open_episodes();
  res.poisons_at_end = manager.active_poisons();
  for (const auto& e : manager.episodes()) {
    const std::string issue = record_issue(e);
    if (!issue.empty()) {
      res.records_consistent = false;
      if (res.first_record_issue.empty()) res.first_record_issue = issue;
    }
  }
  const double now = world.scheduler().now();
  res.budget_respected =
      announce.bucket().spent() <= announce.bucket().capacity(now) + 1e-6;

  check::InvariantChecker checker(world.engine());
  const auto violations = checker.check_all();
  res.invariant_violations = violations.size();
  if (!violations.empty()) {
    res.first_violation =
        violations.front().invariant + ": " + violations.front().detail;
  }
  return res;
}

std::string FleetScenarioResult::summary() const {
  std::ostringstream os;
  os << "seed=" << seed << " targets=" << targets << " outages=" << outages
     << " episodes=" << episodes << (ok() ? " OK" : " FAIL");
  if (open_at_end > 0) os << " open=" << open_at_end;
  if (poisons_at_end > 0) os << " poisons=" << poisons_at_end;
  if (!records_consistent) os << " record[" << first_record_issue << "]";
  if (invariant_violations > 0) {
    os << " violations=" << invariant_violations << " [" << first_violation
       << "]";
  }
  if (!budget_respected) os << " budget-exceeded";
  return os.str();
}

FleetSweepSummary run_fleet_sweep(std::uint64_t first_seed, std::size_t count,
                                  double fault_intensity, bool log_failures) {
  FleetSweepSummary summary;
  for (std::size_t i = 0; i < count; ++i) {
    FleetScenarioOptions opt;
    opt.seed = first_seed + i;
    opt.fault_intensity = fault_intensity;
    const FleetScenarioResult result = run_fleet_scenario(opt);
    ++summary.runs;
    if (!result.ok()) {
      summary.failing_seeds.push_back(result.seed);
      if (log_failures) {
        std::fprintf(stderr,
                     "LG_FLEET fuzz failure (fault_intensity=%g): %s\n"
                     "  replay with LG_CHECK_SEED=%llu\n",
                     fault_intensity, result.summary().c_str(),
                     static_cast<unsigned long long>(result.seed));
      }
    }
  }
  return summary;
}

}  // namespace lg::fleet
