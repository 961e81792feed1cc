// The LIFEGUARD system: continuous monitoring, failure detection, isolation,
// remediation, and repair detection, orchestrated over the simulation
// scheduler.
//
// Lifecycle per monitored target (§4), one core::EpisodeMachine slot each:
//   monitor (pings every kPingIntervalSeconds, core/episode.h)
//     -> threshold of consecutive failures crossed: open an episode, isolate
//     -> hold in ISOLATE until the outage is old enough that it is unlikely
//        to self-resolve (§4.2), re-confirming it still exists
//     -> decide: poison the blamed AS (reverse/bidirectional failures),
//        or shift egress provider (forward failures), or stand down
//     -> VERIFY: probe the original path via the sentinel; when it heals,
//        revert to the baseline announcement. One remediation at a time.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgp/engine.h"
#include "core/atlas.h"
#include "core/decision.h"
#include "core/episode.h"
#include "core/isolation.h"
#include "core/remediation.h"
#include "core/sentinel.h"
#include "measure/probes.h"
#include "measure/vantage.h"
#include "util/scheduler.h"

namespace lg::obs {
class Counter;
class Gauge;
class TraceRing;
}  // namespace lg::obs

namespace lg::faults {
class FaultPlane;
}  // namespace lg::faults

namespace lg::adversary {
class AdversaryPlane;
}  // namespace lg::adversary

namespace lg::core {

struct LifeguardConfig {
  DecisionConfig decision;
};

class Lifeguard {
 public:
  Lifeguard(util::Scheduler& sched, bgp::BgpEngine& engine,
            measure::Prober& prober, AsId origin, LifeguardConfig cfg = {});

  // Begin monitoring `addr` (effective immediately if start() already ran).
  void add_target(topo::Ipv4 addr);
  // PlanetLab-like helper vantage points used for spoofed-probe direction
  // isolation and (under faults) probe-coverage estimation.
  void set_helpers(std::vector<VantagePoint> helpers) {
    helpers_ = std::move(helpers);
  }

  // Announce baseline prefixes and begin the monitoring loops.
  void start();

  // Every episode seen so far, open or closed, in detection order.
  const std::vector<EpisodeRecord>& episodes() const noexcept {
    return machine_.records();
  }
  PathAtlas& atlas() noexcept { return atlas_; }
  Remediator& remediator() noexcept { return remediator_; }
  // The origin-side vantage point monitoring probes are issued from.
  const VantagePoint& vantage() const noexcept { return vp_; }
  // True while a poison / selective poison / egress shift is in effect.
  bool is_remediating() const noexcept { return active_.has_value(); }
  // EWMA fraction of helper control probes answered (1.0 on a clean plane).
  double probe_coverage() const noexcept { return probe_coverage_; }
  // True when a fault plane is enabled and coverage is below the floor.
  bool degraded() const noexcept;

 private:
  // Per-target detection state and escalation-ladder position (current
  // rung, failed sentinel rounds on it); machine_ slot i holds the
  // lifecycle of targets_[i].
  struct TargetCtx {
    int consecutive_failures = 0;
    double first_failure_at = -1.0;
    int rung = 0;
    int rung_failures = 0;
  };

  void ping_round();
  // Control probes against the helper set to estimate probe coverage; only
  // runs when the fault plane is enabled.
  void coverage_round(double now);
  // One monitoring ping, retried on the default schedule when faults are
  // enabled, a single classic ping otherwise.
  bool monitored_ping(topo::Ipv4 addr);
  void atlas_round();
  void on_threshold(std::size_t i);
  void decision_point(std::size_t i);
  void sentinel_round(std::size_t i);
  void apply_remediation(std::size_t i);
  // When isolation blamed a specific inter-AS link and our provider chains
  // are disjoint enough, returns the providers to poison through (everyone
  // except the one giving the blamed AS a clean path) — Fig. 3's selective
  // poisoning. nullopt = not applicable, fall back to a full poison.
  std::optional<std::vector<AsId>> selective_poison_plan(
      AsId blamed, const std::optional<topo::AsLinkKey>& blamed_link,
      AsId affected_source) const;
  void revert(std::size_t i);
  // Adversary-gated escalation ladder (§7.1-style fallbacks): after enough
  // failed sentinel rounds, deepen the poison, then fall back to selective
  // advertisement, then give up and close the episode as captive.
  void escalate(std::size_t i);
  // Close slot i's episode back to MONITOR with `note` and restart its
  // failure count.
  void close(std::size_t i, EpisodeOutcome outcome, std::string note = {});

  util::Scheduler* sched_;
  bgp::BgpEngine* engine_;
  measure::Prober* prober_;
  AsId origin_;
  VantagePoint vp_;
  PathAtlas atlas_;
  IsolationEngine isolation_;
  PoisonDecider decider_;
  Remediator remediator_;
  SentinelMonitor sentinel_;
  std::vector<VantagePoint> helpers_;
  std::vector<TargetCtx> targets_;
  EpisodeMachine machine_;
  // Fault plane resolved at construction; degradation is active only when
  // it is enabled, so fault-free runs are byte-identical to before.
  faults::FaultPlane* faults_;
  // Adversary plane resolved at construction; the escalation ladder and
  // captive bookkeeping run only when it is enabled.
  adversary::AdversaryPlane* adversary_;
  double probe_coverage_ = 1.0;
  // The target whose episode holds the remediation.
  std::optional<std::size_t> active_;
  bool started_ = false;

  // Observability handles, resolved once at construction (see obs/metrics.h).
  // The episode lifecycle's own metrics are the machine's (lg.episode.*).
  // Isolation verdicts by FailureDirection (kNone counts as inconclusive).
  obs::Counter* c_isolations_[4] = {};
  obs::Counter* c_poisons_;
  obs::Counter* c_selective_poisons_;
  obs::Counter* c_egress_shifts_;
  obs::Counter* c_decisions_deferred_;
  // Registered only when the adversary plane is enabled (nullptr otherwise),
  // so cooperative-run metric reports are unchanged.
  obs::Counter* c_escalations_ = nullptr;
  obs::Gauge* g_probe_coverage_;
  obs::TraceRing* trace_;
};

}  // namespace lg::core
