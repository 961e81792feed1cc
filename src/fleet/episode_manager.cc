#include "fleet/episode_manager.h"

#include <algorithm>

#include "adversary/adversary_plane.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/scheduler.h"

namespace lg::fleet {

using core::EpisodeRecord;
using core::EpisodeState;
using O = core::EpisodeOutcome;
using core::FailureDirection;
using core::RepairAction;

namespace {
// Let the baseline announcements converge and the atlas warm before the
// first monitoring round (the deployment ran in steady state long before
// detection mattered). The atlas's first full pass runs at half this.
constexpr double kStartDelaySeconds = 600.0;
// Consecutive failed rounds that enter SUSPECT; core::kFailThreshold of
// them request isolation.
constexpr int kSuspectThreshold = 2;
// Background atlas maintenance: one full pass at startup, then rotating
// slices of kAtlasChunk targets every core::kAtlasRefreshSeconds — a
// thousand-target shard cannot re-traceroute everything each round.
constexpr std::size_t kAtlasChunk = 32;
}  // namespace

EpisodeManager::EpisodeManager(workload::SimWorld& world, AsId origin,
                               std::vector<MonitoredTarget> targets,
                               AnnouncementBudget& announce_budget,
                               ProbeAdmission& probe_admission,
                               EpisodeConfig cfg)
    : world_(&world),
      sched_(&world.scheduler()),
      origin_(origin),
      cfg_(cfg),
      vp_(measure::VantagePoint::in_as(origin, "fleet-origin")),
      isolation_(world.prober(), atlas_),
      decider_(world.graph()),
      remediator_(world.engine(), origin),
      sentinel_(world.prober(), origin),
      announce_(&announce_budget),
      admission_(&probe_admission),
      machine_(fleet_timing()) {
  util::require_period("EpisodeConfig::ping_interval", cfg.ping_interval);
  util::require_period("EpisodeConfig::defer_retry_seconds",
                       cfg.defer_retry_seconds);
  targets_.reserve(targets.size());
  for (const auto& info : targets) {
    targets_.push_back(TargetCtx{.info = info});
    machine_.add(info.addr, info.as);
  }
  auto& reg = obs::MetricsRegistry::current();
  c_remediations_ = &reg.counter("lg.fleet.remediations_applied");
  c_announcements_ = &reg.counter("lg.fleet.announcements_sent");
  g_poison_set_ = &reg.gauge("lg.fleet.poison_set_size");
  trace_ = &obs::TraceRing::current();
  adversary_ = &adversary::AdversaryPlane::current();
}

void EpisodeManager::start(double stop_at) {
  if (started_) return;
  started_ = true;
  stop_at_ = stop_at;
  remediator_.announce_baseline();
  sched_->after(std::max(cfg_.ping_interval, kStartDelaySeconds * 0.5),
                [this] { atlas_round(); });
  sched_->after(std::max(cfg_.ping_interval, kStartDelaySeconds),
                [this] { monitor_round(); });
}

bool EpisodeManager::ping_target(std::size_t i) {
  // The paper sends ping pairs; one success counts.
  const topo::Ipv4 addr = targets_[i].info.addr;
  auto once = [&] {
    return world_->prober().ping(origin_, addr, vp_.addr).replied;
  };
  return once() || once();
}

void EpisodeManager::close(std::size_t i, core::EpisodeOutcome outcome,
                           std::string note) {
  const bool holddown = outcome == O::kRemediated ||
                        outcome == O::kVerifyTimeout ||
                        outcome == O::kCaptive;
  machine_.record(i).note = std::move(note);
  machine_.close(i, sched_->now(), outcome, holddown);
  TargetCtx& t = targets_[i];
  t.consecutive_failures = 0;
  t.first_failure_at = -1.0;
  t.verify_failures = 0;
}

void EpisodeManager::atlas_round() {
  const double now = sched_->now();
  // First pass warms the whole table (the steady state the deployment
  // reached before turning detection on); later rounds refresh a rotating
  // slice.
  const std::size_t n = targets_.size();
  const std::size_t span = atlas_warmed_ ? std::min(kAtlasChunk, n) : n;
  atlas_warmed_ = true;
  for (std::size_t i = 0; i < span && n > 0; ++i) {
    const auto& t = targets_[(atlas_cursor_ + i) % n];
    atlas_.refresh(world_->prober(), vp_, t.info.addr, now);
  }
  atlas_cursor_ = n > 0 ? (atlas_cursor_ + span) % n : 0;
  if (now + core::kAtlasRefreshSeconds <= stop_at_) {
    sched_->after(core::kAtlasRefreshSeconds, [this] { atlas_round(); });
  }
}

void EpisodeManager::monitor_round() {
  const double now = sched_->now();
  for (std::size_t idx = 0; idx < targets_.size(); ++idx) {
    TargetCtx& t = targets_[idx];
    machine_.watch(idx, now);
    const EpisodeState state = machine_.state(idx);
    if (state == EpisodeState::kIsolate ||
        state == EpisodeState::kRemediate || state == EpisodeState::kVerify) {
      continue;  // owned by their scheduled continuations
    }
    if (state == EpisodeState::kHolddown && !machine_.holding_down(idx, now)) {
      // Cooldown over. A failure streak that persisted through holddown
      // re-enters SUSPECT immediately instead of re-counting from zero.
      machine_.move(idx,
                    t.consecutive_failures >= kSuspectThreshold
                        ? EpisodeState::kSuspect
                        : EpisodeState::kMonitor,
                    now);
    }
    if (ping_target(idx)) {
      t.consecutive_failures = 0;
      t.first_failure_at = -1.0;
      if (machine_.state(idx) == EpisodeState::kSuspect) {
        if (machine_.is_open(idx)) {
          // Detected but still deferred by admission — and it healed on its
          // own, which is exactly what the §4.2 gate predicts for most.
          close(idx, O::kResolvedSelf);
        } else {
          machine_.move(idx, EpisodeState::kMonitor, now);
        }
      }
      continue;
    }
    if (t.consecutive_failures == 0) t.first_failure_at = now;
    ++t.consecutive_failures;
    if (machine_.state(idx) == EpisodeState::kMonitor &&
        t.consecutive_failures >= kSuspectThreshold) {
      machine_.move(idx, EpisodeState::kSuspect, now);
    }
  }
  admission_pass(now);
  if (now + cfg_.ping_interval <= stop_at_) {
    sched_->after(cfg_.ping_interval, [this] { monitor_round(); });
    return;
  }
  // Last round: a detection still waiting on admission gets its own
  // continuation, as every later state already has, so the horizon never
  // leaves it open.
  for (std::size_t idx = 0; idx < targets_.size(); ++idx) {
    if (machine_.state(idx) == EpisodeState::kSuspect &&
        machine_.is_open(idx)) {
      sched_->after(cfg_.defer_retry_seconds,
                    [this, idx] { admit_point(idx); });
    }
  }
}

void EpisodeManager::admission_pass(double now) {
  // Suspects past the detection threshold, ranked by estimated impact
  // (target weight x outage age) so the probe budget goes to the episodes
  // that matter most; ties break on table index for determinism.
  std::vector<std::size_t> ready;
  for (std::size_t idx = 0; idx < targets_.size(); ++idx) {
    TargetCtx& t = targets_[idx];
    if (machine_.state(idx) != EpisodeState::kSuspect) continue;
    if (t.consecutive_failures < core::kFailThreshold) continue;
    if (!machine_.is_open(idx)) {
      const EpisodeRecord& rec = machine_.open(idx, now, t.first_failure_at);
      LG_INFO << "fleet: episode opened for " << topo::format_ipv4(rec.target)
              << " (AS " << rec.target_as << ", flap gen "
              << rec.flap_generation << ")";
    }
    ready.push_back(idx);
  }
  std::sort(ready.begin(), ready.end(), [&](std::size_t a, std::size_t b) {
    const auto impact = [&](const TargetCtx& t) {
      return t.info.weight * (now - t.first_failure_at + cfg_.ping_interval);
    };
    const double ia = impact(targets_[a]);
    const double ib = impact(targets_[b]);
    return ia != ib ? ia > ib : a < b;
  });
  for (const std::size_t idx : ready) {
    if (admission_->try_admit(now)) {
      run_isolation(idx, now);
    } else {
      machine_.defer_probe(idx, now);
    }
  }
}

void EpisodeManager::run_isolation(std::size_t i, double now) {
  EpisodeRecord& rec = machine_.record(i);
  machine_.move(i, EpisodeState::kIsolate, now);
  rec.isolation = isolation_.isolate(vp_, rec.target, helpers_);
  rec.isolated_at = now + rec.isolation.modeled_seconds;
  admission_->settle(now, static_cast<double>(rec.isolation.probes_used));
  sched_->at(rec.isolated_at, [this, i] { decision_point(i); });
}

void EpisodeManager::decision_point(std::size_t i) {
  if (machine_.state(i) != EpisodeState::kIsolate || !machine_.is_open(i)) {
    return;
  }
  EpisodeRecord& rec = machine_.record(i);
  const double now = sched_->now();

  // Re-confirm: transient problems resolve while we wait (§4.2).
  if (ping_target(i)) {
    close(i, O::kResolvedSelf, "resolved before remediation");
    return;
  }
  if (rec.isolation.target_reachable || !rec.isolation.blamed_as) {
    close(i, O::kNoBlame, "isolation produced no target to act on");
    return;
  }

  const AsId blamed = *rec.isolation.blamed_as;
  const double elapsed = now - rec.opened_at;
  const AsId sources[] = {rec.target_as};
  rec.verdict = decider_.decide(origin_, blamed, elapsed, sources,
                                rec.isolation.blamed_link);
  if (!rec.verdict.poison) {
    if (elapsed < decider_.min_elapsed_seconds()) {
      // Not old enough yet: hold in ISOLATE and re-decide once it is.
      sched_->at(rec.opened_at + decider_.min_elapsed_seconds() + 1.0,
                 [this, i] { decision_point(i); });
      return;
    }
    close(i, O::kDeclined, "declined: " + rec.verdict.reason);
    return;
  }

  rec.blamed = blamed;
  machine_.move(i, EpisodeState::kRemediate, now);
  remediate_point(i);
}

void EpisodeManager::remediate_point(std::size_t i) {
  if (machine_.state(i) != EpisodeState::kRemediate || !machine_.is_open(i)) {
    return;
  }
  EpisodeRecord& rec = machine_.record(i);
  const double now = sched_->now();

  // A long budget wait may outlive the outage.
  if (ping_target(i)) {
    close(i, O::kResolvedSelf, "resolved while awaiting budget");
    return;
  }

  if (rec.isolation.direction == FailureDirection::kForward) {
    // Forward failures: shift our own egress instead of announcing. The
    // forced egress is an origin-wide setting, so a shard has one slot.
    if (egress_held_) {
      close(i, O::kDeclined, "declined: egress-shift slot busy");
      return;
    }
    const std::optional<AsId> alternative =
        decider_.alternate_egress(origin_, rec.blamed, rec.target_as);
    if (!alternative) {
      close(i, O::kDeclined,
            "declined: no alternate egress avoids the blamed AS");
      return;
    }
    world_->engine().speaker(origin_).set_forced_egress(alternative);
    egress_held_ = true;
    rec.action = RepairAction::kEgressShift;
  } else if (auto it = poison_refs_.find(rec.blamed);
             it != poison_refs_.end()) {
    // Another episode already holds this AS poisoned: join it. No
    // announcement changes hands, so no token either.
    ++it->second;
    rec.action = RepairAction::kPoison;
  } else {
    // The union changes: this is the announcement the budget paces.
    if (!announce_->try_announce(now)) {
      machine_.defer_budget(i, now);
      if (announce_->bucket().rate() <= 0.0 &&
          announce_->bucket().level(now) < 1.0) {
        close(i, O::kDeclined, "declined: announcement budget exhausted");
        return;
      }
      sched_->after(cfg_.defer_retry_seconds,
                    [this, i] { remediate_point(i); });
      return;
    }
    poison_refs_[rec.blamed] = 1;
    announce_union();
    rec.action = RepairAction::kPoison;
    trace_->record(now, obs::TraceKind::kPoisonApplied, rec.blamed,
                   rec.target);
  }

  c_remediations_->inc();
  g_poison_set_->set(static_cast<double>(poison_refs_.size()));
  machine_.remediated(i, now);
  LG_INFO << "fleet: remediation applied ("
          << core::repair_action_name(rec.action) << " of AS " << rec.blamed
          << ") for " << topo::format_ipv4(rec.target);
  sched_->after(core::kSentinelRoundSeconds, [this, i] { verify_round(i); });
}

void EpisodeManager::verify_round(std::size_t i) {
  if (machine_.state(i) != EpisodeState::kVerify || !machine_.is_open(i)) {
    return;
  }
  EpisodeRecord& rec = machine_.record(i);
  TargetCtx& t = targets_[i];
  const double now = sched_->now();

  const bool repaired =
      rec.action == RepairAction::kEgressShift
          ? core::original_egress_repaired(world_->engine(),
                                           world_->prober(), vp_, rec.target)
          : sentinel_.original_path_repaired(rec.target);
  if (repaired) {
    machine_.repaired(i, now);
    drop_remediation(rec);
    close(i, O::kRemediated);
    return;
  }

  if (!ping_target(i)) {
    // The remediated path is not carrying traffic either: the blame may
    // have been wrong, or a second failure appeared behind the first. Drop
    // the remediation and fail back to ISOLATE.
    if (++t.verify_failures >= kVerifyFailThreshold) {
      t.verify_failures = 0;
      drop_remediation(rec);
      machine_.fail_back(i, now);
      LG_INFO << "fleet: VERIFY failed back to ISOLATE for "
              << topo::format_ipv4(rec.target);
      admit_point(i);
      return;
    }
  } else {
    t.verify_failures = 0;
  }

  if (now - rec.remediated_at > kMaxVerifySeconds) {
    // Under the adversarial plane a repair that never takes is the expected
    // signature of hostile policies (path-length filters rejecting the
    // poisoned announcement, default-routed stubs forwarding regardless):
    // close as captive, not verify-timeout, so adversarial runs stop
    // reporting a repair that never reached the data plane.
    drop_remediation(rec);
    if (adversary_->enabled() && !ping_target(i)) {
      close(i, O::kCaptive,
            "gave up captive: adversarial plane kept the target dark");
    } else {
      close(i, O::kVerifyTimeout, "verification timed out; reverting");
    }
    return;
  }
  sched_->after(core::kSentinelRoundSeconds, [this, i] { verify_round(i); });
}

void EpisodeManager::admit_point(std::size_t i) {
  const EpisodeState state = machine_.state(i);
  const bool reisolating = state == EpisodeState::kIsolate;
  if ((!reisolating && state != EpisodeState::kSuspect) ||
      !machine_.is_open(i)) {
    return;
  }
  const double now = sched_->now();
  if (ping_target(i)) {
    close(i, O::kResolvedSelf, reisolating
                                   ? "resolved during re-isolation"
                                   : "resolved while awaiting admission");
    return;
  }
  if (!admission_->try_admit(now)) {
    machine_.defer_probe(i, now);
    // A bucket that can never again hold one isolation's estimate would
    // retry forever.
    TokenBucket& bucket = admission_->bucket();
    const double ceiling =
        bucket.rate() > 0.0 ? bucket.burst() : bucket.level(now);
    if (ceiling + 1e-9 < admission_->cost_estimate()) {
      close(i, O::kDeclined, "declined: probe admission exhausted");
      return;
    }
    sched_->after(cfg_.defer_retry_seconds, [this, i] { admit_point(i); });
    return;
  }
  run_isolation(i, now);
}

void EpisodeManager::announce_union() {
  std::vector<AsId> poisons;
  poisons.reserve(poison_refs_.size());
  for (const auto& [as, refs] : poison_refs_) poisons.push_back(as);
  if (poisons.empty()) {
    remediator_.unpoison();
  } else {
    remediator_.poison_path(poisons);
  }
  c_announcements_->inc();
}

void EpisodeManager::drop_remediation(EpisodeRecord& rec) {
  if (rec.action == RepairAction::kEgressShift) {
    world_->engine().speaker(origin_).set_forced_egress(std::nullopt);
    egress_held_ = false;
  } else if (rec.action == RepairAction::kPoison) {
    auto it = poison_refs_.find(rec.blamed);
    if (it != poison_refs_.end() && --it->second <= 0) {
      poison_refs_.erase(it);
      announce_union();
    }
  }
  rec.action = RepairAction::kNone;
  g_poison_set_->set(static_cast<double>(poison_refs_.size()));
}

}  // namespace lg::fleet
