#include "core/lifeguard.h"

#include <algorithm>

#include "adversary/adversary_plane.h"
#include "faults/fault_plane.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace lg::core {

namespace {
// Consecutive failed sentinel rounds on one escalation rung before climbing
// to the next (adversary-gated; see Lifeguard::escalate).
constexpr int kEscalationFailures = 3;

// Graceful degradation under a faulty measurement plane (lg::faults). All of
// this is inert unless a FaultPlane is enabled for the run: with faults off,
// Lifeguard sends exactly the probes it always did.
// EWMA probe coverage (fraction of helper control probes answered) below
// which the decision loop treats its own evidence as degraded.
constexpr double kCoverageFloor = 0.6;
// EWMA weight of the newest coverage sample.
constexpr double kCoverageAlpha = 0.3;
// Extra consecutive failed rounds required before declaring an outage
// while degraded (absorbs probe loss masquerading as failure).
constexpr int kDegradedExtraFailures = 2;
// While degraded, poisoning decisions are deferred and re-evaluated every
// kDeferRetrySeconds, up to kMaxDeferSeconds past detection; after that
// Lifeguard acts on the evidence it has rather than never repairing.
constexpr double kDeferRetrySeconds = 60.0;
constexpr double kMaxDeferSeconds = 600.0;
}  // namespace

Lifeguard::Lifeguard(util::Scheduler& sched, bgp::BgpEngine& engine,
                     measure::Prober& prober, AsId origin, LifeguardConfig cfg)
    : sched_(&sched),
      engine_(&engine),
      prober_(&prober),
      origin_(origin),
      vp_(VantagePoint::in_as(origin, "lifeguard-origin")),
      isolation_(prober, atlas_),
      decider_(engine.graph(), cfg.decision),
      remediator_(engine, origin),
      sentinel_(prober, origin) {
  auto& reg = obs::MetricsRegistry::current();
  const auto isolations = [&](FailureDirection d) -> obs::Counter*& {
    return c_isolations_[static_cast<std::size_t>(d)];
  };
  isolations(FailureDirection::kNone) =
      &reg.counter("lg.lifeguard.isolations_inconclusive");
  isolations(FailureDirection::kForward) =
      &reg.counter("lg.lifeguard.isolations_forward");
  isolations(FailureDirection::kReverse) =
      &reg.counter("lg.lifeguard.isolations_reverse");
  isolations(FailureDirection::kBidirectional) =
      &reg.counter("lg.lifeguard.isolations_bidirectional");
  c_poisons_ = &reg.counter("lg.lifeguard.poisons_applied");
  c_selective_poisons_ = &reg.counter("lg.lifeguard.selective_poisons_applied");
  c_egress_shifts_ = &reg.counter("lg.lifeguard.egress_shifts_applied");
  c_decisions_deferred_ = &reg.counter("lg.lifeguard.decisions_deferred");
  g_probe_coverage_ = &reg.gauge("lg.lifeguard.probe_coverage");
  trace_ = &obs::TraceRing::current();
  faults_ = &faults::FaultPlane::current();
  adversary_ = &adversary::AdversaryPlane::current();
  if (adversary_->enabled()) {
    c_escalations_ = &reg.counter("lg.lifeguard.escalations");
  }
}

bool Lifeguard::degraded() const noexcept {
  return faults_->enabled() && probe_coverage_ < kCoverageFloor;
}

bool Lifeguard::monitored_ping(topo::Ipv4 addr) {
  if (!faults_->enabled()) return prober_->ping(vp_.as, addr, vp_.addr).replied;
  return prober_->ping_with_retry(vp_.as, addr, vp_.addr).result.replied;
}

void Lifeguard::coverage_round(double now) {
  if (helpers_.empty()) return;
  // Control probes: each helper pings our own (known-announced) address. A
  // silent helper means its VP is down, its probes are being eaten, or it
  // cannot reach us — all reasons to distrust outage evidence this round.
  int answered = 0;
  for (const auto& helper : helpers_) {
    if (prober_->ping(helper.as, vp_.addr, helper.addr).replied) ++answered;
  }
  const double sample =
      static_cast<double>(answered) / static_cast<double>(helpers_.size());
  probe_coverage_ =
      kCoverageAlpha * sample + (1.0 - kCoverageAlpha) * probe_coverage_;
  g_probe_coverage_->set(probe_coverage_);
  if (probe_coverage_ < kCoverageFloor) {
    trace_->record(now, obs::TraceKind::kCoverageDegraded, vp_.as, 0,
                   probe_coverage_);
  }
}

void Lifeguard::add_target(topo::Ipv4 addr) {
  targets_.emplace_back();
  machine_.add(addr,
               topo::AddressPlan::owner_of(addr).value_or(topo::kInvalidAs));
}

void Lifeguard::start() {
  if (started_) return;
  started_ = true;
  remediator_.announce_baseline();
  // Let BGP carry the baseline before the first measurement rounds.
  sched_->after(kPingIntervalSeconds, [this] { ping_round(); });
  sched_->after(kPingIntervalSeconds * 2, [this] { atlas_round(); });
}

void Lifeguard::atlas_round() {
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    atlas_.refresh(*prober_, vp_, machine_.slot(i).target, sched_->now());
  }
  sched_->after(kAtlasRefreshSeconds, [this] { atlas_round(); });
}

void Lifeguard::ping_round() {
  const double now = sched_->now();
  if (faults_->enabled()) coverage_round(now);
  // While coverage is degraded, require extra consecutive failures before
  // declaring an outage: probe loss looks exactly like unreachability, and
  // poisoning on bad evidence is worse than reacting a round or two late.
  const int threshold =
      kFailThreshold + (degraded() ? kDegradedExtraFailures : 0);
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    machine_.watch(i, now);
    // An open episode is handled by its own continuations.
    if (machine_.is_open(i)) continue;
    TargetCtx& target = targets_[i];
    const topo::Ipv4 addr = machine_.slot(i).target;
    // The paper sends ping pairs; one success counts.
    const bool ok = monitored_ping(addr) || monitored_ping(addr);
    if (ok) {
      target.consecutive_failures = 0;
      target.first_failure_at = -1.0;
      continue;
    }
    if (target.consecutive_failures == 0) target.first_failure_at = now;
    ++target.consecutive_failures;
    if (target.consecutive_failures >= threshold) {
      on_threshold(i);
    }
  }
  sched_->after(kPingIntervalSeconds, [this] { ping_round(); });
}

void Lifeguard::close(std::size_t i, EpisodeOutcome outcome,
                      std::string note) {
  machine_.record(i).note = std::move(note);
  machine_.close(i, sched_->now(), outcome, /*holddown=*/false);
  targets_[i].consecutive_failures = 0;
}

void Lifeguard::on_threshold(std::size_t i) {
  const double now = sched_->now();
  const topo::Ipv4 addr = machine_.slot(i).target;
  LG_INFO << "outage detected to " << topo::format_ipv4(addr) << " (AS "
          << machine_.slot(i).target_as << "), isolating";
  EpisodeRecord& record = machine_.open(i, now, targets_[i].first_failure_at);
  record.isolation = isolation_.isolate(vp_, addr, helpers_);
  record.isolated_at = now + record.isolation.modeled_seconds;
  if (faults_->enabled()) {
    // Thin probe coverage widens the verdict's confidence interval: the
    // decision loop treats low-confidence isolations as deferrable evidence.
    record.isolation.confidence =
        std::min(record.isolation.confidence, probe_coverage_);
  }
  c_isolations_[static_cast<std::size_t>(record.isolation.direction)]->inc();
  // Isolation is synchronous with a modeled duration: the ISOLATE residency
  // runs to the decision at the modeled completion time, and on through any
  // wait for the outage to age.
  machine_.move(i, EpisodeState::kIsolate, now);
  sched_->at(record.isolated_at, [this, i] { decision_point(i); });
}

void Lifeguard::decision_point(std::size_t i) {
  if (!machine_.is_open(i)) return;
  EpisodeRecord& record = machine_.record(i);
  const double now = sched_->now();
  const topo::Ipv4 addr = record.target;

  // Re-confirm: transient problems resolve while we wait (§4.2).
  if (prober_->ping(vp_.as, addr, vp_.addr).replied) {
    close(i, EpisodeOutcome::kResolvedSelf, "resolved before remediation");
    return;
  }

  if (record.isolation.target_reachable || !record.isolation.blamed_as) {
    close(i, EpisodeOutcome::kNoBlame,
          "isolation produced no target to act on");
    return;
  }

  // Graceful degradation: while probe coverage is below the floor, the
  // isolation verdict rests on evidence we do not trust enough to poison on.
  // Defer and re-decide, up to kMaxDeferSeconds past detection — after that
  // act on what we have rather than leave the outage unrepaired forever.
  if (degraded() && now - record.detected_at < kMaxDeferSeconds) {
    c_decisions_deferred_->inc();
    trace_->record(now, obs::TraceKind::kDecisionDeferred, addr, 0,
                   probe_coverage_);
    machine_.annotate(i, "coverage", probe_coverage_);
    sched_->after(kDeferRetrySeconds, [this, i] { decision_point(i); });
    return;
  }

  const double elapsed = now - record.opened_at;
  const AsId sources[] = {record.target_as};
  record.verdict =
      decider_.decide(origin_, *record.isolation.blamed_as, elapsed, sources,
                      record.isolation.blamed_link);

  if (!record.verdict.poison) {
    if (elapsed < decider_.min_elapsed_seconds()) {
      // Not old enough yet: hold and re-decide once it is.
      machine_.annotate(i, "age", elapsed);
      sched_->at(record.opened_at + decider_.min_elapsed_seconds() + 1.0,
                 [this, i] { decision_point(i); });
      return;
    }
    close(i, EpisodeOutcome::kDeclined, "declined: " + record.verdict.reason);
    return;
  }

  if (active_.has_value()) {
    close(i, EpisodeOutcome::kDeclined,
          "another remediation in flight; standing down");
    return;
  }

  apply_remediation(i);
}

std::optional<std::vector<AsId>> Lifeguard::selective_poison_plan(
    AsId blamed, const std::optional<topo::AsLinkKey>& blamed_link,
    AsId affected_source) const {
  if (!blamed_link) return std::nullopt;
  const auto providers = engine_->graph().providers(origin_);
  if (providers.size() < 2) return std::nullopt;
  // Find the provider whose chain gives the blamed AS a path to us that
  // avoids the failing link; poison the blamed AS via every *other*
  // provider so it converges onto that clean chain.
  const auto avoid = topo::Avoidance::of_link(blamed_link->a, blamed_link->b);
  const auto clean_path = decider_.oracle().shortest_path(blamed, origin_, avoid);
  if (clean_path.size() < 2) return std::nullopt;
  const AsId keep = clean_path[clean_path.size() - 2];
  if (std::find(providers.begin(), providers.end(), keep) == providers.end()) {
    return std::nullopt;  // the clean chain does not end at one of our providers
  }
  // The affected source must actually benefit: it needs a policy path to us
  // around the link too.
  if (!decider_.oracle().reachable(affected_source, origin_, avoid)) {
    return std::nullopt;
  }
  std::vector<AsId> poisoned_via;
  for (const AsId p : providers) {
    if (p != keep) poisoned_via.push_back(p);
  }
  return poisoned_via;
}

void Lifeguard::apply_remediation(std::size_t i) {
  EpisodeRecord& record = machine_.record(i);
  const double now = sched_->now();
  const AsId blamed = *record.isolation.blamed_as;

  if (record.isolation.direction == FailureDirection::kForward) {
    // Forward failures: reroute our own egress away from the blamed AS.
    const std::optional<AsId> alternative =
        decider_.alternate_egress(origin_, blamed, record.target_as);
    if (!alternative) {
      close(i, EpisodeOutcome::kDeclined,
            "no alternate egress avoids the blamed AS");
      return;
    }
    engine_->speaker(origin_).set_forced_egress(alternative);
    record.action = RepairAction::kEgressShift;
    c_egress_shifts_->inc();
    trace_->record(now, obs::TraceKind::kEgressShifted, blamed, record.target);
  } else if (const auto providers_for_selective =
                 selective_poison_plan(blamed, record.isolation.blamed_link,
                                       record.target_as);
             providers_for_selective.has_value()) {
    // Link-level blame with disjoint provider chains: steer the blamed AS
    // off the failing link without cutting it off (Fig. 3).
    remediator_.selective_poison(blamed, *providers_for_selective);
    record.action = RepairAction::kSelectivePoison;
    c_selective_poisons_->inc();
    trace_->record(now, obs::TraceKind::kSelectivePoisonApplied, blamed,
                   record.target);
  } else {
    remediator_.poison(blamed);
    record.action = RepairAction::kPoison;
    c_poisons_->inc();
    trace_->record(now, obs::TraceKind::kPoisonApplied, blamed, record.target);
  }
  record.blamed = blamed;
  // VERIFY runs from the poison/shift to the revert; sentinel rounds live
  // inside it.
  machine_.remediated(i, now);
  targets_[i].rung = 0;
  targets_[i].rung_failures = 0;
  active_ = i;
  LG_INFO << "remediation applied (" << repair_action_name(record.action)
          << " of AS " << blamed << ") for "
          << topo::format_ipv4(record.target);

  sched_->after(kSentinelRoundSeconds, [this, i] { sentinel_round(i); });
}

void Lifeguard::sentinel_round(std::size_t i) {
  if (machine_.state(i) != EpisodeState::kVerify) return;
  EpisodeRecord& record = machine_.record(i);
  const topo::Ipv4 addr = record.target;

  const bool repaired =
      record.action == RepairAction::kEgressShift
          ? original_egress_repaired(*engine_, *prober_, vp_, addr)
          : sentinel_.original_path_repaired(addr);
  if (repaired) {
    machine_.repaired(i, sched_->now());
    revert(i);
    return;
  }
  // Under an adversarial plane the poison may never take: a path-length
  // filter can reject the longer post-poison paths, and a default-routed
  // stub keeps forwarding into the failure regardless of the control plane.
  // Judge the *remediated* path on the data plane — a poison that took
  // restores reachability through an alternate route long before the
  // original path heals — and climb the escalation ladder while it fails.
  if (adversary_->enabled() && record.action != RepairAction::kEgressShift) {
    TargetCtx& target = targets_[i];
    if (monitored_ping(addr)) {
      target.rung_failures = 0;
    } else if (++target.rung_failures >= kEscalationFailures) {
      escalate(i);
      if (!machine_.is_open(i)) return;  // gave up
    }
  }
  sched_->after(kSentinelRoundSeconds, [this, i] { sentinel_round(i); });
}

void Lifeguard::escalate(std::size_t i) {
  EpisodeRecord& record = machine_.record(i);
  TargetCtx& target = targets_[i];
  const double now = sched_->now();
  const AsId blamed = *record.isolation.blamed_as;
  target.rung_failures = 0;
  ++target.rung;
  const auto climbed = [&](RepairAction action, const char* what) {
    record.action = action;
    ++record.escalations;
    if (c_escalations_ != nullptr) c_escalations_->inc();
    trace_->record(now, obs::TraceKind::kEscalationApplied, blamed,
                   record.target, static_cast<double>(target.rung));
    machine_.annotate(i, "escalation", static_cast<double>(target.rung));
    LG_INFO << "escalation rung " << target.rung << " (" << what << " AS "
            << blamed << ") for " << topo::format_ipv4(record.target);
  };

  if (target.rung == 1) {
    // Rung 1 — deeper poison: {A, A} defeats an AS that tolerates a single
    // occurrence of its own ASN in the path (§7.1).
    remediator_.poison_path({blamed, blamed});
    climbed(RepairAction::kPoison, "deeper poison of");
    return;
  }
  const auto providers = engine_->graph().providers(origin_);
  if (target.rung == 2 && providers.size() >= 2) {
    // Rung 2 — selective advertisement: poison via all providers but one,
    // so filtered or default-routed ASes still see a baseline announcement
    // from the kept provider while the blamed AS is steered elsewhere. A
    // single provider leaves nothing to advertise through: give up.
    remediator_.selective_poison(
        blamed, std::vector<AsId>(providers.begin() + 1, providers.end()));
    climbed(RepairAction::kSelectivePoison, "selective advertisement around");
    return;
  }

  // Rung 3 — give up. Audit the control plane against the data plane before
  // reverting: a missing route at the blamed AS with a still-dead data plane
  // is the default-route signature (repaired RIB, captive traffic).
  record.control_plane_repaired =
      engine_->best_route(blamed, remediator_.production_prefix()) == nullptr;
  const char* note = record.control_plane_repaired
                         ? "captive: control plane repaired but data plane "
                           "still fails (default-routed AS keeps forwarding)"
                         : "captive: adversarial import filters kept the "
                           "blamed AS on the path";
  remediator_.unpoison();
  trace_->record(now, obs::TraceKind::kCaptiveDeclared, blamed, record.target,
                 record.control_plane_repaired ? 1.0 : 0.0);
  LG_INFO << "giving up on " << topo::format_ipv4(record.target)
          << " after " << record.escalations << " escalations: " << note;
  close(i, EpisodeOutcome::kCaptive, note);
  target.rung = 0;
  active_.reset();
}

void Lifeguard::revert(std::size_t i) {
  EpisodeRecord& record = machine_.record(i);
  if (record.action == RepairAction::kEgressShift) {
    engine_->speaker(origin_).set_forced_egress(std::nullopt);
  } else {
    remediator_.unpoison();
  }
  LG_INFO << "original path healed; reverted to baseline for "
          << topo::format_ipv4(record.target);
  trace_->record(sched_->now(), obs::TraceKind::kRepairReverted,
                 record.target);
  close(i, EpisodeOutcome::kRemediated);
  active_.reset();
}

}  // namespace lg::core
