#include "fleet/episode_manager.h"

#include <algorithm>
#include <cmath>

#include "adversary/adversary_plane.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace lg::fleet {

using core::FailureDirection;
using core::RepairAction;

const char* episode_state_name(EpisodeState s) noexcept {
  switch (s) {
    case EpisodeState::kMonitor:
      return "MONITOR";
    case EpisodeState::kSuspect:
      return "SUSPECT";
    case EpisodeState::kIsolate:
      return "ISOLATE";
    case EpisodeState::kRemediate:
      return "REMEDIATE";
    case EpisodeState::kVerify:
      return "VERIFY";
    case EpisodeState::kHolddown:
      return "HOLDDOWN";
  }
  return "?";
}

namespace {
// Span names are a fixed vocabulary of static strings (see obs/span.h).
const char* state_span_name(EpisodeState s) noexcept {
  switch (s) {
    case EpisodeState::kSuspect:
      return "fleet.suspect";
    case EpisodeState::kIsolate:
      return "fleet.isolate";
    case EpisodeState::kRemediate:
      return "fleet.remediate";
    case EpisodeState::kVerify:
      return "fleet.verify";
    case EpisodeState::kHolddown:
      return "fleet.holddown";
    case EpisodeState::kMonitor:
      break;  // steady state, no residency span
  }
  return nullptr;
}
}  // namespace

const char* episode_outcome_name(EpisodeOutcome o) noexcept {
  switch (o) {
    case EpisodeOutcome::kOpen:
      return "open";
    case EpisodeOutcome::kResolvedSelf:
      return "resolved-self";
    case EpisodeOutcome::kNoBlame:
      return "no-blame";
    case EpisodeOutcome::kDeclined:
      return "declined";
    case EpisodeOutcome::kRemediated:
      return "remediated";
    case EpisodeOutcome::kVerifyTimeout:
      return "verify-timeout";
    case EpisodeOutcome::kCaptive:
      return "captive";
  }
  return "?";
}

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
      isolation_(world.prober(), atlas_, cfg.isolation),
      decider_(world.graph(), cfg.decision),
      remediator_(world.engine(), origin, cfg.remediation),
      sentinel_(world.prober(), origin) {
  targets_.reserve(targets.size());
  for (auto& info : targets) {
    TargetCtx ctx;
    ctx.info = info;
    targets_.push_back(ctx);
  }
  auto& reg = obs::MetricsRegistry::current();
  c_episodes_opened_ = &reg.counter("lg.fleet.episodes_opened");
  c_episodes_closed_ = &reg.counter("lg.fleet.episodes_closed");
  c_remediations_ = &reg.counter("lg.fleet.remediations_applied");
  c_reverts_ = &reg.counter("lg.fleet.reverts_completed");
  c_resolved_self_ = &reg.counter("lg.fleet.resolved_without_action");
  c_declined_ = &reg.counter("lg.fleet.declined");
  c_isolation_deferrals_ = &reg.counter("lg.fleet.isolations_deferred");
  c_budget_deferrals_ = &reg.counter("lg.fleet.announcements_deferred");
  c_verify_failbacks_ = &reg.counter("lg.fleet.verify_failbacks");
  c_flap_reentries_ = &reg.counter("lg.fleet.flap_reentries");
  c_announcements_ = &reg.counter("lg.fleet.announcements_sent");
  c_stalled_ = &reg.counter("lg.fleet.stalled");
  g_open_episodes_ = &reg.gauge("lg.fleet.open_episodes");
  g_poison_set_ = &reg.gauge("lg.fleet.poison_set_size");
  d_time_to_remediate_ = &reg.distribution("lg.fleet.time_to_remediate");
  d_time_to_repair_ = &reg.distribution("lg.fleet.time_to_repair");
  d_episode_duration_ = &reg.distribution("lg.fleet.episode_duration");
  using S = EpisodeState;
  d_time_in_state_[static_cast<std::size_t>(S::kSuspect)] =
      &reg.distribution("lg.fleet.time_in_suspect");
  d_time_in_state_[static_cast<std::size_t>(S::kIsolate)] =
      &reg.distribution("lg.fleet.time_in_isolate");
  d_time_in_state_[static_cast<std::size_t>(S::kRemediate)] =
      &reg.distribution("lg.fleet.time_in_remediate");
  d_time_in_state_[static_cast<std::size_t>(S::kVerify)] =
      &reg.distribution("lg.fleet.time_in_verify");
  d_time_in_state_[static_cast<std::size_t>(S::kHolddown)] =
      &reg.distribution("lg.fleet.time_in_holddown");
  trace_ = &obs::TraceRing::current();
  spans_ = &obs::SpanRegistry::current();
  adversary_ = &adversary::AdversaryPlane::current();
  if (adversary_->enabled()) {
    c_captive_ = &reg.counter("lg.fleet.captive");
  }
  announce_ = &announce_budget;
  admission_ = &probe_admission;
}

void EpisodeManager::start(double stop_at) {
  if (started_) return;
  started_ = true;
  stop_at_ = stop_at;
  remediator_.announce_baseline();
  sched_->after(std::max(cfg_.ping_interval, cfg_.start_delay_seconds * 0.5),
                [this] { atlas_round(); });
  sched_->after(std::max(cfg_.ping_interval, cfg_.start_delay_seconds),
                [this] { monitor_round(); });
}

void EpisodeManager::set_state(TargetCtx& t, EpisodeState state) {
  if (t.state == state) return;
  const double now = sched_->now();
  trace_->record(now, obs::TraceKind::kEpisodeStateChange, t.info.addr,
                 static_cast<std::uint64_t>(state));
  // Residency accounting runs whether or not spans are on: the time-in-state
  // distributions (and the stall watchdog they feed) must not vary with
  // LG_SPANS, or the spans-off byte-identity contract breaks.
  if (obs::Distribution* d =
          d_time_in_state_[static_cast<std::size_t>(t.state)];
      d != nullptr) {
    d->observe(now - t.state_entered_at);
  }
  if (t.state_span != 0) {
    spans_->end(t.state_span, now);
    t.state_span = 0;
  }
  t.state = state;
  t.state_entered_at = now;
  t.stall_flagged = false;
  if (const char* name = state_span_name(state); name != nullptr) {
    t.state_span = spans_->begin(now, name, t.episode_span, t.info.addr,
                                 static_cast<std::uint64_t>(state));
  }
}

bool EpisodeManager::ping_target(const TargetCtx& t) {
  // The paper sends ping pairs; one success counts.
  auto once = [&] {
    return world_->prober().ping(origin_, t.info.addr, vp_.addr).replied;
  };
  return once() || once();
}

double EpisodeManager::holddown_duration(const EpisodeConfig& cfg,
                                         int flap_count) {
  const int shift = std::min(std::max(flap_count, 0), 10);
  const double d = cfg.holddown_seconds * static_cast<double>(1u << shift);
  return std::min(d, cfg.holddown_max_seconds);
}

void EpisodeManager::atlas_round() {
  const double now = sched_->now();
  // First pass warms the whole table (the steady state the deployment
  // reached before turning detection on); later rounds refresh a rotating
  // slice.
  const std::size_t n = targets_.size();
  const std::size_t span =
      atlas_warmed_ ? std::min(cfg_.atlas_chunk, n) : n;
  atlas_warmed_ = true;
  for (std::size_t i = 0; i < span && n > 0; ++i) {
    const auto& t = targets_[(atlas_cursor_ + i) % n];
    atlas_.refresh(world_->prober(), vp_, t.info.addr, now);
  }
  atlas_cursor_ = n > 0 ? (atlas_cursor_ + span) % n : 0;
  if (now + cfg_.atlas_refresh_interval <= stop_at_) {
    sched_->after(cfg_.atlas_refresh_interval, [this] { atlas_round(); });
  }
}

void EpisodeManager::monitor_round() {
  const double now = sched_->now();
  for (std::size_t idx = 0; idx < targets_.size(); ++idx) {
    TargetCtx& t = targets_[idx];
    // Stall watchdog: an episode parked in one active state past the
    // threshold is flagged once. MONITOR is steady state and HOLDDOWN is a
    // deliberate cooldown, so neither counts as stuck.
    if (cfg_.stall_threshold_seconds > 0.0 &&
        t.state != EpisodeState::kMonitor &&
        t.state != EpisodeState::kHolddown && !t.stall_flagged &&
        now - t.state_entered_at > cfg_.stall_threshold_seconds) {
      t.stall_flagged = true;
      c_stalled_->inc();
      trace_->record(now, obs::TraceKind::kEpisodeStalled, t.info.addr,
                     static_cast<std::uint64_t>(t.state),
                     now - t.state_entered_at);
      spans_->annotate(t.state_span, "stalled_age", now - t.state_entered_at);
      spans_->annotate(t.episode_span, "stalled_in_state",
                       static_cast<double>(t.state));
    }
    if (t.state == EpisodeState::kIsolate ||
        t.state == EpisodeState::kRemediate ||
        t.state == EpisodeState::kVerify) {
      continue;  // owned by their scheduled continuations
    }
    if (t.state == EpisodeState::kHolddown && now >= t.holddown_until) {
      // Cooldown over. A failure streak that persisted through holddown
      // re-enters SUSPECT immediately instead of re-counting from zero.
      set_state(t, t.consecutive_failures >= cfg_.suspect_threshold
                       ? EpisodeState::kSuspect
                       : EpisodeState::kMonitor);
    }
    const bool ok = ping_target(t);
    if (ok) {
      t.consecutive_failures = 0;
      t.first_failure_at = -1.0;
      if (t.state == EpisodeState::kSuspect) {
        if (t.open_episode != SIZE_MAX) {
          // Detected but still deferred by admission — and it healed on its
          // own, which is exactly what the §4.2 gate predicts for most.
          close_episode(t, episodes_[t.open_episode],
                        EpisodeOutcome::kResolvedSelf, now,
                        EpisodeState::kMonitor);
        } else {
          set_state(t, EpisodeState::kMonitor);
        }
      }
      continue;
    }
    if (t.consecutive_failures == 0) t.first_failure_at = now;
    ++t.consecutive_failures;
    if (t.state == EpisodeState::kMonitor &&
        t.consecutive_failures >= cfg_.suspect_threshold) {
      set_state(t, EpisodeState::kSuspect);
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
    const TargetCtx& t = targets_[idx];
    if (t.state == EpisodeState::kSuspect && t.open_episode != SIZE_MAX) {
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
    if (t.state != EpisodeState::kSuspect) continue;
    if (t.consecutive_failures < cfg_.fail_threshold) continue;
    if (t.open_episode == SIZE_MAX) open_episode(t, now);
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
    TargetCtx& t = targets_[idx];
    EpisodeRecord& rec = episodes_[t.open_episode];
    if (admission_->try_admit(now)) {
      run_isolation(t, now);
    } else {
      ++rec.probe_deferrals;
      c_isolation_deferrals_->inc();
      trace_->record(now, obs::TraceKind::kAdmissionDeferred, t.info.addr,
                     t.info.as, now - t.first_failure_at);
      spans_->annotate(t.episode_span, "admission_deferred",
                       now - t.first_failure_at);
    }
  }
}

void EpisodeManager::open_episode(TargetCtx& t, double now) {
  if (now - t.last_closed_at <= cfg_.flap_window_seconds) {
    ++t.flap_count;
    ++flap_reentries_;
    c_flap_reentries_->inc();
  } else {
    t.flap_count = 0;
  }
  EpisodeRecord rec;
  rec.target = t.info.addr;
  rec.target_as = t.info.as;
  rec.opened_at = t.first_failure_at;
  rec.detected_at = now;
  rec.flap_generation = t.flap_count;
  t.open_episode = episodes_.size();
  episodes_.push_back(std::move(rec));
  ++open_;
  g_open_episodes_->set(static_cast<double>(open_));
  c_episodes_opened_->inc();
  trace_->record(now, obs::TraceKind::kEpisodeOpened, t.info.addr, t.info.as);
  // Episode span runs from first failed round to close; the current state
  // residency (SUSPECT, opened before detection crossed the threshold)
  // re-parents under it so the tree reads episode -> states.
  t.episode_span = spans_->begin(episodes_.back().opened_at, "fleet.episode",
                                 0, t.info.addr, t.info.as);
  spans_->reparent(t.state_span, t.episode_span);
  if (t.episode_span != 0 && t.flap_count > 0) {
    spans_->annotate(t.episode_span, "flap_generation",
                     static_cast<double>(t.flap_count));
  }
  LG_INFO << "fleet: episode opened for " << topo::format_ipv4(t.info.addr)
          << " (AS " << t.info.as << ", flap gen " << t.flap_count << ")";
}

void EpisodeManager::run_isolation(TargetCtx& t, double now) {
  EpisodeRecord& rec = episodes_[t.open_episode];
  set_state(t, EpisodeState::kIsolate);
  rec.isolation = isolation_.isolate(vp_, t.info.addr, helpers_);
  rec.isolated_at = now + rec.isolation.modeled_seconds;
  admission_->settle(now, static_cast<double>(rec.isolation.probes_used));
  const std::size_t idx = static_cast<std::size_t>(&t - targets_.data());
  sched_->at(rec.isolated_at, [this, idx] { decision_point(idx); });
}

void EpisodeManager::decision_point(std::size_t target_idx) {
  TargetCtx& t = targets_[target_idx];
  if (t.state != EpisodeState::kIsolate || t.open_episode == SIZE_MAX) return;
  EpisodeRecord& rec = episodes_[t.open_episode];
  const double now = sched_->now();

  // Re-confirm: transient problems resolve while we wait (§4.2).
  if (ping_target(t)) {
    rec.note = "resolved before remediation";
    close_episode(t, rec, EpisodeOutcome::kResolvedSelf, now,
                  EpisodeState::kMonitor);
    return;
  }
  if (rec.isolation.target_reachable || !rec.isolation.blamed_as) {
    rec.note = "isolation produced no target to act on";
    close_episode(t, rec, EpisodeOutcome::kNoBlame, now,
                  EpisodeState::kMonitor);
    return;
  }

  const AsId blamed = *rec.isolation.blamed_as;
  const double elapsed = now - rec.opened_at;
  const AsId sources[] = {rec.target_as};
  rec.verdict = decider_.decide(origin_, blamed, elapsed, sources,
                                rec.isolation.blamed_link);
  if (!rec.verdict.poison) {
    if (elapsed < cfg_.decision.min_elapsed_seconds) {
      // Not old enough yet: hold in ISOLATE and re-decide once it is.
      sched_->at(rec.opened_at + cfg_.decision.min_elapsed_seconds + 1.0,
                 [this, target_idx] { decision_point(target_idx); });
      return;
    }
    rec.note = "declined: " + rec.verdict.reason;
    close_episode(t, rec, EpisodeOutcome::kDeclined, now,
                  EpisodeState::kMonitor);
    return;
  }

  rec.blamed = blamed;
  set_state(t, EpisodeState::kRemediate);
  remediate_point(target_idx);
}

void EpisodeManager::remediate_point(std::size_t target_idx) {
  TargetCtx& t = targets_[target_idx];
  if (t.state != EpisodeState::kRemediate || t.open_episode == SIZE_MAX) {
    return;
  }
  EpisodeRecord& rec = episodes_[t.open_episode];
  const double now = sched_->now();

  // A long budget wait may outlive the outage.
  if (ping_target(t)) {
    rec.note = "resolved while awaiting budget";
    close_episode(t, rec, EpisodeOutcome::kResolvedSelf, now,
                  EpisodeState::kMonitor);
    return;
  }

  if (rec.isolation.direction == FailureDirection::kForward) {
    // Forward failures: shift our own egress instead of announcing. The
    // forced egress is an origin-wide setting, so a shard has one slot.
    if (egress_holder_.has_value()) {
      rec.note = "declined: egress-shift slot busy";
      close_episode(t, rec, EpisodeOutcome::kDeclined, now,
                    EpisodeState::kMonitor);
      return;
    }
    std::optional<AsId> alternative;
    for (const AsId provider : world_->graph().providers(origin_)) {
      if (provider == rec.blamed) continue;
      if (decider_.oracle().reachable(provider, rec.target_as,
                                      topo::Avoidance::of_as(rec.blamed))) {
        alternative = provider;
        break;
      }
    }
    if (!alternative) {
      rec.note = "declined: no alternate egress avoids the blamed AS";
      close_episode(t, rec, EpisodeOutcome::kDeclined, now,
                    EpisodeState::kMonitor);
      return;
    }
    world_->engine().speaker(origin_).set_forced_egress(alternative);
    egress_holder_ = t.open_episode;
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
      ++rec.budget_deferrals;
      c_budget_deferrals_->inc();
      trace_->record(now, obs::TraceKind::kAnnounceDeferred, t.info.addr,
                     rec.blamed, now - rec.detected_at);
      spans_->annotate(t.episode_span, "announce_deferred",
                       now - rec.detected_at);
      if (announce_->bucket().rate() <= 0.0 &&
          announce_->bucket().level(now) < 1.0) {
        rec.note = "declined: announcement budget exhausted";
        close_episode(t, rec, EpisodeOutcome::kDeclined, now,
                      EpisodeState::kMonitor);
        return;
      }
      sched_->after(cfg_.defer_retry_seconds,
                    [this, target_idx] { remediate_point(target_idx); });
      return;
    }
    poison_refs_[rec.blamed] = 1;
    announce_union();
    rec.action = RepairAction::kPoison;
    trace_->record(now, obs::TraceKind::kPoisonApplied, rec.blamed,
                   rec.target);
  }

  if (rec.remediated_at < 0.0) {
    rec.remediated_at = now;
    d_time_to_remediate_->observe(now - rec.detected_at);
  }
  c_remediations_->inc();
  g_poison_set_->set(static_cast<double>(poison_refs_.size()));
  set_state(t, EpisodeState::kVerify);
  LG_INFO << "fleet: remediation applied ("
          << core::repair_action_name(rec.action) << " of AS " << rec.blamed
          << ") for " << topo::format_ipv4(rec.target);
  sched_->after(cfg_.verify_interval,
                [this, target_idx] { verify_round(target_idx); });
}

void EpisodeManager::verify_round(std::size_t target_idx) {
  TargetCtx& t = targets_[target_idx];
  if (t.state != EpisodeState::kVerify || t.open_episode == SIZE_MAX) return;
  EpisodeRecord& rec = episodes_[t.open_episode];
  const double now = sched_->now();

  bool repaired = false;
  if (rec.action == RepairAction::kEgressShift) {
    // Re-test the original forward path with the forced egress temporarily
    // cleared; clear-and-restore is race-free in the simulator.
    auto& speaker = world_->engine().speaker(origin_);
    const auto forced = speaker.forced_egress();
    speaker.set_forced_egress(std::nullopt);
    repaired = world_->prober().ping(origin_, rec.target, vp_.addr).replied;
    speaker.set_forced_egress(forced);
  } else {
    repaired = sentinel_.original_path_repaired(rec.target);
  }

  if (repaired) {
    rec.repaired_at = now;
    d_time_to_repair_->observe(now - rec.detected_at);
    trace_->record(now, obs::TraceKind::kRepairObserved, rec.target);
    drop_remediation(rec);
    c_reverts_->inc();
    close_episode(t, rec, EpisodeOutcome::kRemediated, now,
                  EpisodeState::kHolddown);
    return;
  }

  if (!ping_target(t)) {
    // The remediated path is not carrying traffic either: the blame may
    // have been wrong, or a second failure appeared behind the first.
    ++t.verify_failures;
    if (t.verify_failures >= cfg_.verify_fail_threshold) {
      verify_failback(target_idx);
      return;
    }
  } else {
    t.verify_failures = 0;
  }

  if (now - rec.remediated_at > cfg_.max_verify_seconds) {
    // Under the adversarial plane a repair that never takes is the expected
    // signature of hostile policies (path-length filters rejecting the
    // poisoned announcement, default-routed stubs forwarding regardless):
    // close as captive, not verify-timeout, so adversarial runs stop
    // reporting a repair that never reached the data plane.
    if (adversary_->enabled() && !ping_target(t)) {
      rec.note = "gave up captive: adversarial plane kept the target dark";
      drop_remediation(rec);
      close_episode(t, rec, EpisodeOutcome::kCaptive, now,
                    EpisodeState::kHolddown);
      return;
    }
    rec.note = "verification timed out; reverting";
    drop_remediation(rec);
    close_episode(t, rec, EpisodeOutcome::kVerifyTimeout, now,
                  EpisodeState::kHolddown);
    return;
  }
  sched_->after(cfg_.verify_interval,
                [this, target_idx] { verify_round(target_idx); });
}

void EpisodeManager::verify_failback(std::size_t target_idx) {
  TargetCtx& t = targets_[target_idx];
  EpisodeRecord& rec = episodes_[t.open_episode];
  c_verify_failbacks_->inc();
  ++rec.reisolations;
  t.verify_failures = 0;
  drop_remediation(rec);
  set_state(t, EpisodeState::kIsolate);
  LG_INFO << "fleet: VERIFY failed back to ISOLATE for "
          << topo::format_ipv4(rec.target);
  admit_point(target_idx);
}

void EpisodeManager::admit_point(std::size_t target_idx) {
  TargetCtx& t = targets_[target_idx];
  const bool reisolating = t.state == EpisodeState::kIsolate;
  if ((!reisolating && t.state != EpisodeState::kSuspect) ||
      t.open_episode == SIZE_MAX) {
    return;
  }
  EpisodeRecord& rec = episodes_[t.open_episode];
  const double now = sched_->now();
  if (ping_target(t)) {
    rec.note = reisolating ? "resolved during re-isolation"
                           : "resolved while awaiting admission";
    close_episode(t, rec, EpisodeOutcome::kResolvedSelf, now,
                  EpisodeState::kMonitor);
    return;
  }
  if (!admission_->try_admit(now)) {
    ++rec.probe_deferrals;
    c_isolation_deferrals_->inc();
    trace_->record(now, obs::TraceKind::kAdmissionDeferred, t.info.addr,
                   t.info.as, now - t.first_failure_at);
    spans_->annotate(t.episode_span, "admission_deferred",
                     now - t.first_failure_at);
    // A bucket that can never again hold one isolation's estimate would
    // retry forever.
    TokenBucket& bucket = admission_->bucket();
    const double ceiling =
        bucket.rate() > 0.0 ? bucket.burst() : bucket.level(now);
    if (ceiling + 1e-9 < admission_->cost_estimate()) {
      rec.note = "declined: probe admission exhausted";
      close_episode(t, rec, EpisodeOutcome::kDeclined, now,
                    EpisodeState::kMonitor);
      return;
    }
    sched_->after(cfg_.defer_retry_seconds,
                  [this, target_idx] { admit_point(target_idx); });
    return;
  }
  run_isolation(t, now);
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
    egress_holder_.reset();
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

void EpisodeManager::close_episode(TargetCtx& t, EpisodeRecord& rec,
                                   EpisodeOutcome outcome, double now,
                                   EpisodeState next_state) {
  rec.outcome = outcome;
  rec.closed_at = now;
  d_episode_duration_->observe(now - rec.opened_at);
  c_episodes_closed_->inc();
  switch (outcome) {
    case EpisodeOutcome::kResolvedSelf:
      c_resolved_self_->inc();
      break;
    case EpisodeOutcome::kDeclined:
    case EpisodeOutcome::kNoBlame:
      c_declined_->inc();
      break;
    case EpisodeOutcome::kCaptive:
      if (c_captive_ != nullptr) c_captive_->inc();
      break;
    default:
      break;
  }
  --open_;
  g_open_episodes_->set(static_cast<double>(open_));
  trace_->record(now, obs::TraceKind::kEpisodeClosed, rec.target,
                 static_cast<std::uint64_t>(outcome));
  t.open_episode = SIZE_MAX;
  t.consecutive_failures = 0;
  t.first_failure_at = -1.0;
  t.verify_failures = 0;
  t.last_closed_at = now;
  // Transition first so a HOLDDOWN residency still links under the episode
  // span, then close the episode span with its outcome decomposition.
  const obs::SpanId episode_span = t.episode_span;
  if (next_state == EpisodeState::kHolddown) {
    enter_holddown(t, now);
  } else {
    set_state(t, next_state);
  }
  if (episode_span != 0) {
    spans_->annotate(episode_span, "outcome", static_cast<double>(outcome));
    if (rec.probe_deferrals > 0) {
      spans_->annotate(episode_span, "probe_deferrals",
                       static_cast<double>(rec.probe_deferrals));
    }
    if (rec.budget_deferrals > 0) {
      spans_->annotate(episode_span, "budget_deferrals",
                       static_cast<double>(rec.budget_deferrals));
    }
    if (rec.remediated_at >= 0.0) {
      spans_->annotate(episode_span, "time_to_remediate",
                       rec.remediated_at - rec.detected_at);
    }
    spans_->end(episode_span, now);
  }
  t.episode_span = 0;
}

void EpisodeManager::enter_holddown(TargetCtx& t, double now) {
  t.holddown_until = now + holddown_duration(cfg_, t.flap_count);
  set_state(t, EpisodeState::kHolddown);
}

}  // namespace lg::fleet
