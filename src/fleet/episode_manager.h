// lg::fleet — the per-target outage-response lifecycle, multiplexed.
//
// core::Lifeguard drives one outage at a time: one poisoned prefix, one
// record in flight, one sentinel loop. The deployment the paper describes
// monitored thousands of destinations and had to respond to whichever of
// them failed — concurrently. The EpisodeManager generalizes the same
// detect → isolate → decide → remediate → verify → revert pipeline into a
// state machine that runs per monitored target:
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
#include "core/isolation.h"
#include "core/lifeguard.h"
#include "core/remediation.h"
#include "core/sentinel.h"
#include "fleet/budget.h"
#include "fleet/target_table.h"
#include "measure/vantage.h"
#include "obs/span.h"
#include "workload/sim_world.h"

namespace lg::obs {
class Counter;
class Distribution;
class Gauge;
class TraceRing;
}  // namespace lg::obs

namespace lg::adversary {
class AdversaryPlane;
}  // namespace lg::adversary

namespace lg::fleet {

enum class EpisodeState : std::uint8_t {
  kMonitor = 0,
  kSuspect,
  kIsolate,
  kRemediate,
  kVerify,
  kHolddown,
};
const char* episode_state_name(EpisodeState s) noexcept;

enum class EpisodeOutcome : std::uint8_t {
  kOpen = 0,            // still in flight when the run ended
  kResolvedSelf,        // healed before remediation (the §4.2 gate working)
  kNoBlame,             // isolation produced nothing actionable
  kDeclined,            // decision gates said no (age / alternate path)
  kRemediated,          // poisoned, verified repaired, reverted
  kVerifyTimeout,       // verification never saw the original path heal
  kCaptive,             // gave up under the adversarial plane: reverted with
                        // the target still unreachable (lg::adversary)
};
const char* episode_outcome_name(EpisodeOutcome o) noexcept;

struct EpisodeConfig {
  // Let the baseline announcements converge and the atlas warm before the
  // first monitoring round (the deployment ran in steady state long before
  // detection mattered). The atlas's first full pass runs at half this.
  double start_delay_seconds = 600.0;
  double ping_interval = 30.0;
  // Consecutive failed rounds: enter SUSPECT, then request isolation.
  int suspect_threshold = 2;
  int fail_threshold = 4;
  // Re-try a budget-deferred isolation/remediation this often.
  double defer_retry_seconds = 60.0;
  // Sentinel cadence while VERIFY holds a poison.
  double verify_interval = 120.0;
  // Consecutive VERIFY rounds with the target still unreachable *through
  // the remediated path* before concluding the blame was wrong and falling
  // back to ISOLATE.
  int verify_fail_threshold = 3;
  // Give up verifying (revert, close kVerifyTimeout) after this long.
  double max_verify_seconds = 7200.0;
  // Post-repair cooldown; doubles per flap up to the cap.
  double holddown_seconds = 600.0;
  double holddown_max_seconds = 3600.0;
  // A new episode opening within this window of the previous close on the
  // same target counts as a flap.
  double flap_window_seconds = 1800.0;
  // Stall watchdog: an episode sitting in one state (excluding MONITOR and
  // HOLDDOWN, which are parked on purpose) longer than this is flagged
  // once — lg.fleet.stalled counter + kEpisodeStalled trace instant + span
  // annotation. 0 disables. LG_FLEET_STALL_SECONDS overrides (fleet env).
  double stall_threshold_seconds = 1800.0;
  // Background atlas maintenance: one full pass at startup, then rotating
  // slices of `atlas_chunk` targets every `atlas_refresh_interval` — a
  // thousand-target shard cannot re-traceroute everything each round.
  double atlas_refresh_interval = 600.0;
  std::size_t atlas_chunk = 32;
  core::IsolationConfig isolation;
  core::DecisionConfig decision;
  core::RemediatorConfig remediation;
};

struct EpisodeRecord {
  Ipv4 target = 0;
  AsId target_as = topo::kInvalidAs;
  double opened_at = -1.0;      // first failed round of this episode
  double detected_at = -1.0;    // threshold crossed
  double isolated_at = -1.0;    // isolation verdict available
  double remediated_at = -1.0;  // poison (union) announced
  double repaired_at = -1.0;    // sentinel saw the original path heal
  double closed_at = -1.0;
  core::IsolationResult isolation;
  core::PoisonVerdict verdict;
  AsId blamed = topo::kInvalidAs;
  core::RepairAction action = core::RepairAction::kNone;
  EpisodeOutcome outcome = EpisodeOutcome::kOpen;
  // Deferral accounting: rounds spent waiting on the probe-admission
  // controller / the announcement token bucket.
  int probe_deferrals = 0;
  int budget_deferrals = 0;
  // VERIFY → ISOLATE fallbacks taken by this episode.
  int reisolations = 0;
  // 0 for a first episode; n for the n-th flap re-entry on this target.
  int flap_generation = 0;
  std::string note;
};

// One shard's worth of the fleet: monitors `targets` from `origin` inside
// one SimWorld, running the episode state machine against the shared
// budgets. Deterministic: all scheduling flows through the world's
// simulated-time scheduler, iteration orders are index/AS-id stable, and
// the only randomness is the caller-seeded world itself.
class EpisodeManager {
 public:
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
  const std::vector<EpisodeRecord>& episodes() const noexcept {
    return episodes_;
  }
  std::size_t open_episodes() const noexcept { return open_; }
  // Distinct ASes currently poisoned (the refcounted union).
  std::size_t active_poisons() const noexcept { return poison_refs_.size(); }
  std::uint64_t flap_reentries() const noexcept { return flap_reentries_; }
  AsId origin() const noexcept { return origin_; }
  const measure::VantagePoint& vantage() const noexcept { return vp_; }
  core::Remediator& remediator() noexcept { return remediator_; }

  // Helper vantage points for spoofed-probe isolation (their production
  // prefixes must be announced by the harness).
  void set_helpers(std::vector<measure::VantagePoint> helpers) {
    helpers_ = std::move(helpers);
  }

  // Exponential-backoff holddown after a closed episode: base doubles per
  // flap (shift clamped at 10 so the multiplier cannot overflow), saturating
  // at holddown_max_seconds. Static so the service plane's per-prefix
  // machines apply the exact same escalation policy without an
  // EpisodeManager instance.
  static double holddown_duration(const EpisodeConfig& cfg, int flap_count);

 private:
  struct TargetCtx {
    MonitoredTarget info;
    EpisodeState state = EpisodeState::kMonitor;
    int consecutive_failures = 0;
    double first_failure_at = -1.0;
    std::size_t open_episode = SIZE_MAX;
    int flap_count = 0;
    double holddown_until = -1.0;
    double last_closed_at = -1e18;
    int verify_failures = 0;
    // Span handles (0 when spans are off): one fleet.episode span per open
    // episode, one fleet.<state> child per non-MONITOR state residency.
    obs::SpanId episode_span = 0;
    obs::SpanId state_span = 0;
    // Stall watchdog bookkeeping — maintained whether or not spans are on.
    double state_entered_at = 0.0;
    bool stall_flagged = false;
  };

  void monitor_round();
  void atlas_round();
  void admission_pass(double now);
  void open_episode(TargetCtx& t, double now);
  void run_isolation(TargetCtx& t, double now);
  void decision_point(std::size_t target_idx);
  void remediate_point(std::size_t target_idx);
  void verify_round(std::size_t target_idx);
  void verify_failback(std::size_t target_idx);
  // Probe-budget-gated isolation retry, for a VERIFY → ISOLATE fallback and
  // for a detection the last monitor round left waiting on admission.
  void admit_point(std::size_t target_idx);
  // Undo `rec`'s remediation: drop its poison refcount (re-announcing the
  // shrunk union when membership changes; reverts are not token-charged)
  // or clear the forced egress.
  void drop_remediation(EpisodeRecord& rec);
  void close_episode(TargetCtx& t, EpisodeRecord& rec, EpisodeOutcome outcome,
                     double now, EpisodeState next_state);
  void enter_holddown(TargetCtx& t, double now);
  void set_state(TargetCtx& t, EpisodeState state);
  // Re-announce the production prefix with the current poison union.
  void announce_union();
  bool ping_target(const TargetCtx& t);

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
  std::vector<EpisodeRecord> episodes_;
  // blamed AS -> number of open episodes holding it poisoned. Ordered so
  // the announced union is deterministic.
  std::map<AsId, int> poison_refs_;
  // The one forced-egress slot a shard owns (forward-failure remediation is
  // an origin-wide routing change, so at most one episode may hold it).
  std::optional<std::size_t> egress_holder_;
  std::size_t atlas_cursor_ = 0;
  bool atlas_warmed_ = false;
  std::size_t open_ = 0;
  std::uint64_t flap_reentries_ = 0;
  double stop_at_ = 0.0;
  bool started_ = false;

  // Observability handles, resolved once at construction (see obs/metrics.h).
  obs::Counter* c_episodes_opened_;
  obs::Counter* c_episodes_closed_;
  obs::Counter* c_remediations_;
  obs::Counter* c_reverts_;
  obs::Counter* c_resolved_self_;
  obs::Counter* c_declined_;
  obs::Counter* c_isolation_deferrals_;
  obs::Counter* c_budget_deferrals_;
  obs::Counter* c_verify_failbacks_;
  obs::Counter* c_flap_reentries_;
  obs::Counter* c_announcements_;
  obs::Counter* c_stalled_;
  obs::Gauge* g_open_episodes_;
  obs::Gauge* g_poison_set_;
  obs::Distribution* d_time_to_remediate_;
  obs::Distribution* d_time_to_repair_;
  obs::Distribution* d_episode_duration_;
  // Time spent in each residency, observed on every transition out of a
  // non-MONITOR state (indexed by EpisodeState; kMonitor slot is null).
  obs::Distribution* d_time_in_state_[6] = {};
  obs::TraceRing* trace_;
  obs::SpanRegistry* spans_;
  // Adversary plane resolved at construction; the captive close path runs
  // only when it is enabled, and c_captive_ stays nullptr (unregistered)
  // otherwise so cooperative metric reports are unchanged.
  adversary::AdversaryPlane* adversary_;
  obs::Counter* c_captive_ = nullptr;
};

}  // namespace lg::fleet
