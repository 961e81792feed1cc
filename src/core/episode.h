// lg::core — LIFEGUARD's §4 outage lifecycle (detect, isolate, decide,
// remediate, watch the sentinel, revert), written once.
//
//   MONITOR ─fail─▶ SUSPECT ─detect─▶ ISOLATE ─act─▶ REMEDIATE ─▶ VERIFY
//      ▲                                  ▲                        │
//      │                                  └──── fail back ─────────┤
//      └──── HOLDDOWN (doubles per flap) ◀──────── close ──────────┘
//
// EpisodeMachine is the only code that opens, moves and closes an episode.
// It keeps plain per-slot state (one slot per monitored target or serviced
// prefix) and an EpisodeRecord per episode; counts flaps, outcomes and
// deferrals; applies the exponential holddown; times remediation and
// repair; runs the stall watchdog; and speaks one vocabulary: an `episode`
// span (first failed round to close) with an `episode.<state>` child per
// residency, the kEpisode* / kRepairObserved / k*Deferred trace instants,
// and lg.episode.* metrics. It is passive — it never schedules, probes or
// announces. Its drivers (core::Lifeguard and fleet::EpisodeManager from
// scheduler continuations, the fleet's service plane from ticks) decide
// when an episode moves, carry out the remediation, and record each step
// here. Nothing it does depends on whether spans are on.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/decision.h"
#include "core/isolation.h"
#include "obs/span.h"

namespace lg::obs {
class Counter;
class Distribution;
class Gauge;
class TraceRing;
}  // namespace lg::obs

namespace lg::core {

enum class EpisodeState : std::uint8_t {
  kMonitor = 0,  // steady state: no episode in flight
  kSuspect,      // failed rounds short of detection, or awaiting admission
  kIsolate,      // isolating, or holding its verdict until a decision
  kRemediate,    // decided to act, waiting for an announcement or a slot
  kVerify,       // remediation in place; the sentinel watches the original
  kHolddown,     // cooldown after a close
};
inline constexpr EpisodeState kLastEpisodeState = EpisodeState::kHolddown;
const char* episode_state_name(EpisodeState s) noexcept;

enum class EpisodeOutcome : std::uint8_t {
  kOpen = 0,       // still in flight
  kResolvedSelf,   // healed before remediation (the §4.2 gate working)
  kNoBlame,        // isolation produced nothing actionable
  kDeclined,       // decision gates or budgets said no
  kRemediated,     // remediated, sentinel saw the repair, reverted
  kVerifyTimeout,  // verification never saw the original path heal
  kCaptive,        // gave up under the adversarial plane: reverted with the
                   // target still unreachable (lg::adversary)
};
inline constexpr std::size_t kEpisodeOutcomes = 7;
const char* episode_outcome_name(EpisodeOutcome o) noexcept;

enum class RepairAction : std::uint8_t {
  kNone,
  kPoison,
  kSelectivePoison,
  kEgressShift,
};
const char* repair_action_name(RepairAction a) noexcept;

// One episode. The machine writes the lifecycle fields; drivers write the
// isolation, verdict, blame, action and note.
struct EpisodeRecord {
  topo::Ipv4 target = 0;
  AsId target_as = topo::kInvalidAs;
  double opened_at = -1.0;      // first failed round of this episode
  double detected_at = -1.0;    // detection threshold crossed
  double isolated_at = -1.0;    // isolation verdict available
  double remediated_at = -1.0;  // first remediation applied
  double repaired_at = -1.0;    // sentinel saw the original path heal
  double closed_at = -1.0;      // closed; any remediation reverted
  IsolationResult isolation;
  PoisonVerdict verdict;
  AsId blamed = topo::kInvalidAs;
  RepairAction action = RepairAction::kNone;
  EpisodeOutcome outcome = EpisodeOutcome::kOpen;
  int probe_deferrals = 0;   // rounds waiting on probe admission
  int budget_deferrals = 0;  // rounds waiting on an announcement or slot
  int reisolations = 0;      // VERIFY → ISOLATE fail-backs
  int escalations = 0;       // escalation-ladder rungs (lg::adversary)
  int flap_generation = 0;   // n for the n-th flap re-entry on this slot
  // Audited at a captive give-up: the blamed AS held no route to the
  // production prefix, so only the data plane stayed captive.
  bool control_plane_repaired = false;
  std::string note;
};

// The stall watchdog's threshold, simulated seconds: an episode sitting in
// an active state (not MONITOR or HOLDDOWN) longer than this is flagged
// once per residency.
inline constexpr double kStallSeconds = 1800.0;

// The §4 cadences core::Lifeguard, fleet::EpisodeManager and the fleet's
// service plane share, simulated seconds: a ping pair to each target every
// round; an outage declared after kFailThreshold consecutive failed rounds
// (about two minutes); a background atlas refresh; and a sentinel round
// while a remediation is in place.
inline constexpr double kPingIntervalSeconds = 30.0;
inline constexpr int kFailThreshold = 4;
inline constexpr double kAtlasRefreshSeconds = 600.0;
inline constexpr double kSentinelRoundSeconds = 120.0;

// Lifecycle timing a driver hands the machine. An episode opening within
// flap_window_seconds of its slot's last close is a flap re-entry (0: never).
struct EpisodeTiming {
  double holddown_seconds = 0.0;
  double holddown_max_seconds = 0.0;
  double flap_window_seconds = 0.0;

  // Holddown after `flaps` flap re-entries: the base doubles per flap
  // (shift clamped at 10 so the multiplier cannot overflow), saturating at
  // holddown_max_seconds.
  double holddown(int flaps) const noexcept;
};

class EpisodeMachine {
 public:
  static constexpr std::uint32_t kNoRecord = 0xffffffffu;

  // Plain per-slot state.
  struct Slot {
    topo::Ipv4 target = 0;
    AsId target_as = topo::kInvalidAs;
    EpisodeState state = EpisodeState::kMonitor;
    bool stalled = false;  // the watchdog fired in this residency
    std::uint16_t flaps = 0;
    std::uint32_t record = kNoRecord;  // the slot's latest episode
    double entered_at = 0.0;           // the current residency began
    double holddown_until = -1.0;
    double last_closed_at = -1e18;
    obs::SpanId episode_span = 0;
    obs::SpanId state_span = 0;
  };

  explicit EpisodeMachine(EpisodeTiming timing = {});

  // Append a slot for the target whose reachability its episodes track.
  std::size_t add(topo::Ipv4 target, AsId target_as);
  const Slot& slot(std::size_t i) const { return slots_[i]; }
  EpisodeState state(std::size_t i) const { return slots_[i].state; }
  bool is_open(std::size_t i) const {
    const std::uint32_t r = slots_[i].record;
    return r != kNoRecord && records_[r].outcome == EpisodeOutcome::kOpen;
  }
  // Slot i's latest episode (open, or closed and not yet released).
  EpisodeRecord& record(std::size_t i) { return records_[slots_[i].record]; }
  // Every retained episode in open order. A driver that release()s its
  // records keeps its own history and must not read this.
  const std::vector<EpisodeRecord>& records() const noexcept {
    return records_;
  }
  std::size_t open_count() const noexcept { return open_; }
  std::uint64_t opened() const noexcept { return opened_; }
  std::uint64_t closed() const noexcept { return closed_; }
  std::uint64_t flap_reentries() const noexcept { return flap_reentries_; }
  // Closed episodes by outcome, indexed by EpisodeOutcome.
  const std::array<std::uint64_t, kEpisodeOutcomes>& outcomes()
      const noexcept {
    return outcomes_;
  }
  // True while slot i is in HOLDDOWN and its cooldown has not run out.
  bool holding_down(std::size_t i, double now) const {
    return slots_[i].state == EpisodeState::kHolddown &&
           now < slots_[i].holddown_until;
  }

  // ---- transitions ----
  // Enter state `s` (a no-op if already in it), with or without an open
  // episode: SUSPECT residencies predate detection.
  void move(std::size_t i, EpisodeState s, double now);
  // Open an episode on slot i, detected now, whose first failed round was
  // at `began`. The current residency re-parents under the episode span.
  EpisodeRecord& open(std::size_t i, double now, double began);
  // Close slot i's open episode. `holddown` enters HOLDDOWN for the
  // flap-scaled cooldown; otherwise the slot returns to MONITOR.
  void close(std::size_t i, double now, EpisodeOutcome outcome,
             bool holddown);
  // Forget slot i's closed record, for drivers that keep their own bounded
  // history; its storage is reused by the next open().
  void release(std::size_t i);
  // The open episode waited a round on probe admission / for an
  // announcement token or remediation slot.
  void defer_probe(std::size_t i, double now);
  void defer_budget(std::size_t i, double now);
  // A remediation took effect: the first one stamps remediated_at and
  // times it. Enters VERIFY.
  void remediated(std::size_t i, double now);
  // The sentinel saw the original path heal.
  void repaired(std::size_t i, double now);
  // VERIFY found the remediated path dead too: back to ISOLATE.
  void fail_back(std::size_t i, double now);
  // A note on slot i's current residency span.
  void annotate(std::size_t i, const char* key, double value);
  // Stall watchdog: flag slot i once if it has sat in one active state
  // longer than kStallSeconds. Observation only.
  void watch(std::size_t i, double now);

  // ---- checkpoint ----
  // Counters, then every slot with its open episode's lifecycle fields
  // (closed records are history, and an open one's isolation, verdict and
  // note are driver detail). Slots are the driver's to build: loading needs
  // the same count and throws std::runtime_error on a state or action byte
  // outside its enum, on a slot whose state contradicts whether it holds an
  // open episode, and on an open-episode count the slots disagree with.
  template <class Ar, class Self>
  static void layout(Ar& ar, Self& self);

 private:
  EpisodeTiming timing_;
  std::vector<Slot> slots_;
  std::vector<EpisodeRecord> records_;
  std::vector<std::uint32_t> free_;  // released record storage
  std::size_t open_ = 0;
  std::uint64_t opened_ = 0;
  std::uint64_t closed_ = 0;
  std::uint64_t flap_reentries_ = 0;
  std::array<std::uint64_t, kEpisodeOutcomes> outcomes_{};

  obs::TraceRing* trace_;
  obs::SpanRegistry* spans_;
  obs::Counter* c_opened_;
  obs::Counter* c_closed_;
  // Per-outcome counters, indexed by EpisodeOutcome: resolved_self,
  // declined (kNoBlame too), remediated, captive (adversary runs only).
  obs::Counter* c_outcome_[kEpisodeOutcomes] = {};
  obs::Counter* c_probe_deferrals_;
  obs::Counter* c_budget_deferrals_;
  obs::Counter* c_failbacks_;
  obs::Counter* c_flap_reentries_;
  obs::Counter* c_stalled_;
  obs::Gauge* g_open_;
  obs::Distribution* d_time_to_remediate_;
  obs::Distribution* d_time_to_repair_;
};

// ---------------------------------------------------------------- layout

inline constexpr std::uint32_t kEpisodeTag = 0x44535045;  // "EPSD"
// v2: every integer a varint.
inline constexpr std::uint32_t kEpisodeVersion = 2;

template <class Ar, class Self>
void EpisodeMachine::layout(Ar& ar, Self& self) {
  ar.magic(kEpisodeTag, kEpisodeVersion);
  ar.var(self.opened_);
  ar.var(self.closed_);
  ar.var(self.flap_reentries_);
  for (auto& n : self.outcomes_) ar.var(n);
  // A slot without an open episode: a state and two flags, three varints
  // and three doubles.
  constexpr std::size_t kMinSlotBytes = 3 + 3 + 3 * 8;
  std::size_t slots = self.slots_.size();
  ar.count(slots, kMinSlotBytes);
  if (slots != self.slots_.size()) {
    throw std::runtime_error(
        "episode checkpoint: slot count mismatch (different config?)");
  }
  if constexpr (Ar::kLoading) {
    self.records_.clear();
    self.free_.clear();
  }
  std::size_t open = 0;
  for (auto& s : self.slots_) {
    ar.record(kMinSlotBytes, [&] {
      ar.enum8(s.state, kLastEpisodeState, "episode state");
      ar.b(s.stalled);
      ar.var(s.flaps);
      ar.f64(s.entered_at);
      ar.f64(s.holddown_until);
      ar.f64(s.last_closed_at);
      ar.var(s.episode_span);
      ar.var(s.state_span);
      bool has_open = false;
      if constexpr (!Ar::kLoading) {
        has_open = s.record != kNoRecord &&
                   self.records_[s.record].outcome == EpisodeOutcome::kOpen;
      }
      ar.b(has_open);
      const bool idle = s.state == EpisodeState::kMonitor ||
                        s.state == EpisodeState::kHolddown;
      const bool busy = s.state != EpisodeState::kSuspect && !idle;
      if ((has_open && idle) || (!has_open && busy)) {
        throw std::runtime_error(
            std::string("episode checkpoint: a slot in ") +
            episode_state_name(s.state) +
            (has_open ? " holds an open episode" : " has no open episode"));
      }
      if (!has_open) {
        if constexpr (Ar::kLoading) s.record = kNoRecord;
        return;
      }
      ++open;
      if constexpr (Ar::kLoading) {
        s.record = static_cast<std::uint32_t>(self.records_.size());
        self.records_.push_back(
            EpisodeRecord{.target = s.target, .target_as = s.target_as});
      }
      auto& rec = self.records_[s.record];
      ar.f64(rec.opened_at);
      ar.f64(rec.detected_at);
      ar.f64(rec.isolated_at);
      ar.f64(rec.remediated_at);
      ar.f64(rec.repaired_at);
      ar.var(rec.blamed);
      ar.enum8(rec.action, RepairAction::kEgressShift, "repair action");
      ar.var(rec.probe_deferrals);
      ar.var(rec.budget_deferrals);
      ar.var(rec.reisolations);
      ar.var(rec.escalations);
      ar.var(rec.flap_generation);
    });
  }
  std::size_t open_count = self.open_;
  ar.var(open_count);
  if (open_count != open) {
    throw std::runtime_error(
        "episode checkpoint: open-episode count " + std::to_string(open_count) +
        " disagrees with the " + std::to_string(open) +
        " slots holding one");
  }
  if constexpr (Ar::kLoading) self.open_ = open;
}

}  // namespace lg::core
