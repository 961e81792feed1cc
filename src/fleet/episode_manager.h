// lg::fleet — the per-target outage-response lifecycle, multiplexed.
//
// core::Lifeguard drives one remediation at a time: one poisoned prefix,
// one record in flight, one sentinel loop. The deployment the paper
// describes monitored thousands of destinations and had to respond to
// whichever of them failed — concurrently. The EpisodeManager runs the same
// detect → isolate → decide → remediate → verify → revert pipeline per
// monitored target, on a core::EpisodeMachine (core/episode.h) that records
// every transition:
//
//   MONITOR ──fail──▶ SUSPECT ──threshold + admission──▶ ISOLATE
//      ▲                 │ (probe budget short: defer, highest
//      │ recovers        │  estimated impact first)
//      │                 ▼
//   HOLDDOWN ◀─verified─ VERIFY ◀─token─ REMEDIATE ◀─verdict─ ISOLATE
//      │                 │                  │ (announcement budget
//      │ flaps: re-enter │ still down:      │  empty: defer episode,
//      ▼ with escalated  │ fail back to     ▼  resume on refill)
//   SUSPECT   holddown   ▼ ISOLATE       [poison set union]
//
// Concurrency is multiplexed onto the *one* production prefix the origin
// owns: every remediated episode contributes its blamed AS to a refcounted
// poison set, and the Remediator re-announces the union whenever the set
// changes (Remediator::poison_path). Announcements that change the set are
// paced by the fleet-wide AnnouncementBudget; isolations are paced by the
// ProbeAdmission controller, which admits the highest-impact suspects
// first and defers the rest — graceful degradation instead of a probe or
// announcement stampede when lg::faults (or a correlated failure) takes
// half the fleet down at once.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/atlas.h"
#include "core/decision.h"
#include "core/episode.h"
#include "core/isolation.h"
#include "core/remediation.h"
#include "core/sentinel.h"
#include "fleet/budget.h"
#include "fleet/target_table.h"
#include "measure/vantage.h"
#include "workload/sim_world.h"

namespace lg::obs {
class Counter;
class Gauge;
class TraceRing;
}  // namespace lg::obs

namespace lg::adversary {
class AdversaryPlane;
}  // namespace lg::adversary

namespace lg::fleet {

// The episode vocabulary is core's; the alias keeps fleet::EpisodeOutcome
// for code that names it.
using EpisodeOutcome = core::EpisodeOutcome;

struct EpisodeConfig {
  double ping_interval = core::kPingIntervalSeconds;
  // Re-try a budget-deferred isolation/remediation this often.
  double defer_retry_seconds = 60.0;
};

// The fleet's episode policy, shared by EpisodeManager and the service
// plane (fleet/service_plane.h). VERIFY falls back (EpisodeManager) or
// closes (service plane) after kVerifyFailThreshold consecutive rounds with
// the target still unreachable *through the remediated path*, and gives up
// kMaxVerifySeconds after the remediation.
inline constexpr int kVerifyFailThreshold = 3;
inline constexpr double kMaxVerifySeconds = 7200.0;

// The fleet's lifecycle timing: a post-repair holddown that doubles per flap
// up to a cap, where an episode opening within kFlapWindowSeconds of its
// target's last close is a flap.
inline constexpr double kHolddownSeconds = 600.0;
inline constexpr double kHolddownMaxSeconds = 3600.0;
inline constexpr double kFlapWindowSeconds = 1800.0;

// That timing, as core::EpisodeTiming.
constexpr core::EpisodeTiming fleet_timing() {
  return {kHolddownSeconds, kHolddownMaxSeconds, kFlapWindowSeconds};
}

// One shard's worth of the fleet: monitors `targets` from `origin` inside
// one SimWorld, running the episode state machine against the shared
// budgets. Deterministic: all scheduling flows through the world's
// simulated-time scheduler, iteration orders are index/AS-id stable, and
// the only randomness is the caller-seeded world itself.
class EpisodeManager {
 public:
  // Throws std::invalid_argument naming the first cadence field of `cfg`
  // that is not a positive period.
  EpisodeManager(workload::SimWorld& world, AsId origin,
                 std::vector<MonitoredTarget> targets,
                 AnnouncementBudget& announce_budget,
                 ProbeAdmission& probe_admission, EpisodeConfig cfg = {});

  // Announce the origin's baseline (production + sentinel) and schedule the
  // monitoring loops. Rounds self-reschedule until `stop_at` simulated
  // seconds; per-episode continuations (admission, decision, verify,
  // holddown) keep running past it so in-flight episodes settle and poisons
  // revert.
  void start(double stop_at);

  // Every episode ever opened, in detection order.
  const std::vector<core::EpisodeRecord>& episodes() const noexcept {
    return machine_.records();
  }
  std::size_t open_episodes() const noexcept { return machine_.open_count(); }
  // Distinct ASes currently poisoned (the refcounted union).
  std::size_t active_poisons() const noexcept { return poison_refs_.size(); }
  std::uint64_t flap_reentries() const noexcept {
    return machine_.flap_reentries();
  }
  const measure::VantagePoint& vantage() const noexcept { return vp_; }
  core::Remediator& remediator() noexcept { return remediator_; }

  // Helper vantage points for spoofed-probe isolation (their production
  // prefixes must be announced by the harness).
  void set_helpers(std::vector<measure::VantagePoint> helpers) {
    helpers_ = std::move(helpers);
  }

 private:
  // Per-target detection state; the episode lifecycle lives in machine_
  // (slot i is targets_[i]).
  struct TargetCtx {
    MonitoredTarget info;
    int consecutive_failures = 0;
    double first_failure_at = -1.0;
    int verify_failures = 0;
  };

  void monitor_round();
  void atlas_round();
  void admission_pass(double now);
  void run_isolation(std::size_t i, double now);
  void decision_point(std::size_t i);
  void remediate_point(std::size_t i);
  void verify_round(std::size_t i);
  // Probe-budget-gated isolation retry, for a VERIFY → ISOLATE fallback and
  // for a detection the last monitor round left waiting on admission.
  void admit_point(std::size_t i);
  // Undo `rec`'s remediation: drop its poison refcount (re-announcing the
  // shrunk union when membership changes; reverts are not token-charged)
  // or clear the forced egress.
  void drop_remediation(core::EpisodeRecord& rec);
  // Close target i's episode with `note`: HOLDDOWN after a remediation,
  // MONITOR otherwise. Restarts its failure streak.
  void close(std::size_t i, core::EpisodeOutcome outcome,
             std::string note = {});
  // Re-announce the production prefix with the current poison union.
  void announce_union();
  bool ping_target(std::size_t i);

  workload::SimWorld* world_;
  util::Scheduler* sched_;
  AsId origin_;
  EpisodeConfig cfg_;
  measure::VantagePoint vp_;
  core::PathAtlas atlas_;
  core::IsolationEngine isolation_;
  core::PoisonDecider decider_;
  core::Remediator remediator_;
  core::SentinelMonitor sentinel_;
  std::vector<measure::VantagePoint> helpers_;
  AnnouncementBudget* announce_;
  ProbeAdmission* admission_;
  std::vector<TargetCtx> targets_;
  core::EpisodeMachine machine_;
  // blamed AS -> number of open episodes holding it poisoned. Ordered so
  // the announced union is deterministic.
  std::map<AsId, int> poison_refs_;
  // The one forced-egress slot a shard owns (forward-failure remediation is
  // an origin-wide routing change, so at most one episode may hold it).
  bool egress_held_ = false;
  std::size_t atlas_cursor_ = 0;
  bool atlas_warmed_ = false;
  double stop_at_ = 0.0;
  bool started_ = false;

  // Observability handles, resolved once at construction (see obs/metrics.h).
  // The episode lifecycle's own metrics are the machine's (lg.episode.*).
  obs::Counter* c_remediations_;
  obs::Counter* c_announcements_;
  obs::Gauge* g_poison_set_;
  obs::TraceRing* trace_;
  // Adversary plane resolved at construction; the captive close path runs
  // only when it is enabled.
  adversary::AdversaryPlane* adversary_;
};

}  // namespace lg::fleet
