#include "fleet/fleet_scheduler.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "run/trial_runner.h"
#include "util/rng.h"
#include "workload/outages.h"

namespace lg::fleet {

namespace {

// Helper vantage points per shard, for spoofed-probe isolation.
constexpr std::size_t kHelpers = 5;
// Outage injection starts here: baseline convergence and the atlas warm-up
// (EpisodeManager's 600 s start delay) must be done.
constexpr double kWarmupSeconds = 900.0;
// Sampled outage durations are truncated here so a bounded run can settle.
constexpr double kOutageDurationCapSeconds = 3600.0;

// One formatted double for the fingerprint: fixed precision, no locale.
void append_num(std::ostringstream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  os << buf;
}

}  // namespace

ShardReport run_fleet_shard(const FleetConfig& cfg, std::size_t shard,
                            std::uint64_t seed) {
  ShardReport report;
  report.shard = shard;
  report.seed = seed;

  TargetTable table(cfg.targets, cfg.shards);
  const std::size_t quota = table.shard_quota(shard);

  workload::SimWorldConfig wc;
  wc.topology = cfg.shard_topology;
  wc.topology.seed = seed;
  wc.engine.seed = seed + 1;
  wc.responsiveness.seed = seed + 2;
  workload::SimWorld world(wc);

  // The origin: first multihomed stub — LIFEGUARD's premise is an edge
  // network with provider choice.
  AsId origin = world.topology().first_multihomed_stub();
  if (origin == topo::kInvalidAs) {
    report.origin = origin;
    return report;  // degenerate topology; empty shard
  }
  report.origin = origin;

  // Helper vantage points need announced production prefixes to receive
  // spoofed-probe replies.
  std::vector<measure::VantagePoint> helpers;
  for (const AsId as : world.stub_vantage_ases(kHelpers + 2)) {
    if (as == origin) continue;
    helpers.push_back(measure::VantagePoint::in_as(as));
    world.announce_production(as);
    if (helpers.size() == kHelpers) break;
  }

  auto targets = TargetTable::enumerate(world, origin, quota);
  report.targets = targets.size();

  const double shards_d = static_cast<double>(cfg.shards);
  AnnouncementBudget announce(kAnnouncePerHour / 3600.0 / shards_d,
                              std::max(1.0, kAnnounceBurst / shards_d));
  ProbeAdmission admission(kProbeRatePerSecond, kProbeBurst);

  EpisodeManager manager(world, origin, std::move(targets), announce,
                         admission, cfg.episode);
  manager.set_helpers(std::move(helpers));
  manager.start(cfg.horizon_seconds);

  // Outage workload: all randomness drawn up front so the event script is
  // fixed before the simulation runs.
  struct PlannedOutage {
    double at = 0.0;
    double duration = 0.0;
    dp::Failure failure;
  };
  std::vector<PlannedOutage> planned;
  const double inject_span = cfg.horizon_seconds - kWarmupSeconds;
  if (inject_span > 0.0 && cfg.outages_per_hour > 0.0) {
    util::Rng rng(seed ^ 0x6f757467ULL, 0x666c7464ULL);
    const auto events = workload::sample_outage_process(
        rng, cfg.outages_per_hour / shards_d, inject_span,
        kOutageDurationCapSeconds);
    const auto culprits = world.feed_ases(20);
    for (const auto& ev : events) {
      if (culprits.empty()) break;
      PlannedOutage p;
      p.at = kWarmupSeconds + ev.start_seconds;
      p.duration = ev.duration_seconds;
      const AsId culprit =
          culprits[rng.uniform_u32(static_cast<std::uint32_t>(culprits.size()))];
      p.failure.at_as = culprit;
      if (rng.bernoulli(kReverseFraction)) {
        // Reverse-path failure toward the origin: the paper's headline
        // case, and naturally correlated — every monitored target whose
        // reply path crosses the culprit goes dark at once.
        p.failure.toward_as = origin;
      } else {
        // Forward failure toward one monitored destination's AS.
        const auto& pick = world.topology().stubs;
        p.failure.toward_as =
            pick[rng.uniform_u32(static_cast<std::uint32_t>(pick.size()))];
      }
      planned.push_back(p);
    }
  }
  report.outages_injected = planned.size();
  for (const auto& p : planned) {
    world.scheduler().at(p.at, [&world, p] {
      const auto id = world.failures().inject(p.failure);
      world.scheduler().after(p.duration,
                              [&world, id] { world.failures().clear(id); });
    });
  }

  world.advance(cfg.horizon_seconds);
  // Drain: repairs land, verifications observe them, poisons revert,
  // episodes settle. Everything self-terminates, so a full drain ends.
  world.converge();

  report.episodes = manager.episodes();
  report.announce_spent = announce.bucket().spent();
  report.announce_capacity =
      announce.bucket().capacity(world.scheduler().now());
  report.announce_granted = announce.bucket().granted();
  report.announce_denied = announce.bucket().denied();
  report.probe_admitted = admission.admitted();
  report.probe_deferred = admission.deferred();
  report.flap_reentries = manager.flap_reentries();
  report.open_at_end = manager.open_episodes();
  report.poisons_at_end = manager.active_poisons();
  return report;
}

FleetScheduler::FleetScheduler(FleetConfig cfg) : cfg_(std::move(cfg)) {}

FleetResult FleetScheduler::run() {
  run::TrialRunnerConfig rc;
  rc.threads = cfg_.threads;
  rc.base_seed = cfg_.base_seed;
  run::TrialRunner runner(rc);
  auto reports = runner.run(cfg_.shards, [this](run::TrialContext& ctx) {
    return run_fleet_shard(cfg_, ctx.index, ctx.seed);
  });
  FleetResult result;
  result.config = cfg_;
  result.shards = std::move(reports);
  return result;
}

std::size_t FleetResult::episodes_opened() const {
  std::size_t n = 0;
  for (const auto& s : shards) n += s.episodes.size();
  return n;
}

std::size_t FleetResult::episodes_closed() const {
  std::size_t n = 0;
  for (const auto& s : shards) {
    for (const auto& e : s.episodes) n += e.closed_at >= 0.0 ? 1 : 0;
  }
  return n;
}

std::size_t FleetResult::outcome_count(EpisodeOutcome o) const {
  std::size_t n = 0;
  for (const auto& s : shards) {
    for (const auto& e : s.episodes) n += e.outcome == o ? 1 : 0;
  }
  return n;
}

std::size_t FleetResult::outages_injected() const {
  std::size_t n = 0;
  for (const auto& s : shards) n += s.outages_injected;
  return n;
}

std::uint64_t FleetResult::flap_reentries() const {
  std::uint64_t n = 0;
  for (const auto& s : shards) n += s.flap_reentries;
  return n;
}

std::vector<double> FleetResult::remediate_latencies() const {
  std::vector<double> out;
  for (const auto& s : shards) {
    for (const auto& e : s.episodes) {
      if (e.remediated_at >= 0.0) out.push_back(e.remediated_at - e.detected_at);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

double FleetResult::announce_spent() const {
  double n = 0.0;
  for (const auto& s : shards) n += s.announce_spent;
  return n;
}

double FleetResult::announce_capacity() const {
  double n = 0.0;
  for (const auto& s : shards) n += s.announce_capacity;
  return n;
}

std::uint64_t FleetResult::announce_denied() const {
  std::uint64_t n = 0;
  for (const auto& s : shards) n += s.announce_denied;
  return n;
}

std::uint64_t FleetResult::probe_deferred() const {
  std::uint64_t n = 0;
  for (const auto& s : shards) n += s.probe_deferred;
  return n;
}

bool FleetResult::budget_respected() const {
  for (const auto& s : shards) {
    if (s.announce_spent > s.announce_capacity + 1e-6) return false;
  }
  return true;
}

double FleetResult::episodes_per_sim_hour() const {
  const double hours = config.horizon_seconds / 3600.0;
  return hours > 0.0 ? static_cast<double>(episodes_closed()) / hours : 0.0;
}

std::string FleetResult::fingerprint() const {
  std::ostringstream os;
  for (const auto& s : shards) {
    os << "shard " << s.shard << " origin " << s.origin << " targets "
       << s.targets << " outages " << s.outages_injected << " spent ";
    append_num(os, s.announce_spent);
    os << "\n";
    for (const auto& e : s.episodes) {
      os << "  " << topo::format_ipv4(e.target) << " as" << e.target_as
         << " " << core::episode_outcome_name(e.outcome) << " blamed"
         << (e.blamed == topo::kInvalidAs ? 0 : e.blamed) << " flap"
         << e.flap_generation << " defers " << e.probe_deferrals << "/"
         << e.budget_deferrals << " reiso " << e.reisolations << " t=[";
      append_num(os, e.opened_at);
      os << ",";
      append_num(os, e.detected_at);
      os << ",";
      append_num(os, e.remediated_at);
      os << ",";
      append_num(os, e.repaired_at);
      os << ",";
      append_num(os, e.closed_at);
      os << "]\n";
    }
  }
  return os.str();
}

}  // namespace lg::fleet
