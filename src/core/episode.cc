#include "core/episode.h"

#include <algorithm>
#include <iterator>

#include "adversary/adversary_plane.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lg::core {

namespace {
// Names index by enum value; span names are a fixed vocabulary of static
// strings (see obs/span.h), MONITOR has no residency span.
constexpr const char* kStateNames[] = {"MONITOR", "SUSPECT",  "ISOLATE",
                                       "REMEDIATE", "VERIFY", "HOLDDOWN"};
constexpr const char* kStateSpans[] = {
    nullptr,          "episode.suspect", "episode.isolate",
    "episode.remediate", "episode.verify", "episode.holddown"};
constexpr const char* kOutcomeNames[] = {
    "open",       "resolved-self",  "no-blame", "declined",
    "remediated", "verify-timeout", "captive"};
constexpr const char* kActionNames[] = {"none", "poison", "selective-poison",
                                        "egress-shift"};
static_assert(std::size(kStateNames) ==
              static_cast<std::size_t>(kLastEpisodeState) + 1);
static_assert(std::size(kOutcomeNames) == kEpisodeOutcomes);

template <std::size_t N, class E>
const char* name_of(const char* const (&names)[N], E e) noexcept {
  const auto i = static_cast<std::size_t>(e);
  return i < N ? names[i] : "?";
}
}  // namespace

const char* episode_state_name(EpisodeState s) noexcept {
  return name_of(kStateNames, s);
}
const char* episode_outcome_name(EpisodeOutcome o) noexcept {
  return name_of(kOutcomeNames, o);
}
const char* repair_action_name(RepairAction a) noexcept {
  return name_of(kActionNames, a);
}

double EpisodeTiming::holddown(int flaps) const noexcept {
  const int shift = std::min(std::max(flaps, 0), 10);
  const double d = holddown_seconds * static_cast<double>(1u << shift);
  return std::min(d, holddown_max_seconds);
}

EpisodeMachine::EpisodeMachine(EpisodeTiming timing)
    : timing_(timing),
      trace_(&obs::TraceRing::current()),
      spans_(&obs::SpanRegistry::current()) {
  auto& reg = obs::MetricsRegistry::current();
  c_opened_ = &reg.counter("lg.episode.opened");
  c_closed_ = &reg.counter("lg.episode.closed");
  using O = EpisodeOutcome;
  auto outcome_counter = [&](O o) -> obs::Counter*& {
    return c_outcome_[static_cast<std::size_t>(o)];
  };
  outcome_counter(O::kResolvedSelf) = &reg.counter("lg.episode.resolved_self");
  outcome_counter(O::kDeclined) = &reg.counter("lg.episode.declined");
  outcome_counter(O::kNoBlame) = outcome_counter(O::kDeclined);
  outcome_counter(O::kRemediated) = &reg.counter("lg.episode.remediated");
  // Registered only when the adversary plane is enabled, so cooperative
  // reports carry no captive counter.
  if (adversary::AdversaryPlane::current().enabled()) {
    outcome_counter(O::kCaptive) = &reg.counter("lg.episode.captive");
  }
  c_probe_deferrals_ = &reg.counter("lg.episode.probe_deferrals");
  c_budget_deferrals_ = &reg.counter("lg.episode.budget_deferrals");
  c_failbacks_ = &reg.counter("lg.episode.failbacks");
  c_flap_reentries_ = &reg.counter("lg.episode.flap_reentries");
  c_stalled_ = &reg.counter("lg.episode.stalled");
  g_open_ = &reg.gauge("lg.episode.open");
  d_time_to_remediate_ = &reg.distribution("lg.episode.time_to_remediate");
  d_time_to_repair_ = &reg.distribution("lg.episode.time_to_repair");
}

std::size_t EpisodeMachine::add(topo::Ipv4 target, AsId target_as) {
  slots_.push_back(Slot{.target = target, .target_as = target_as});
  return slots_.size() - 1;
}

void EpisodeMachine::move(std::size_t i, EpisodeState state, double now) {
  Slot& s = slots_[i];
  if (s.state == state) return;
  trace_->record(now, obs::TraceKind::kEpisodeStateChange, s.target,
                 static_cast<std::uint64_t>(state));
  spans_->end(s.state_span, now);
  s.state_span = 0;
  s.state = state;
  s.entered_at = now;
  s.stalled = false;
  if (const char* name = kStateSpans[static_cast<std::size_t>(state)]) {
    s.state_span = spans_->begin(now, name, s.episode_span, s.target,
                                 static_cast<std::uint64_t>(state));
  }
}

EpisodeRecord& EpisodeMachine::open(std::size_t i, double now,
                                    double began) {
  Slot& s = slots_[i];
  if (timing_.flap_window_seconds > 0.0 &&
      now - s.last_closed_at <= timing_.flap_window_seconds) {
    ++s.flaps;
    ++flap_reentries_;
    c_flap_reentries_->inc();
  } else {
    s.flaps = 0;
  }
  if (free_.empty()) {
    s.record = static_cast<std::uint32_t>(records_.size());
    records_.emplace_back();
  } else {
    s.record = free_.back();
    free_.pop_back();
    records_[s.record] = EpisodeRecord{};
  }
  EpisodeRecord& rec = records_[s.record];
  rec.target = s.target;
  rec.target_as = s.target_as;
  rec.opened_at = began;
  rec.detected_at = now;
  rec.flap_generation = s.flaps;
  ++open_;
  ++opened_;
  g_open_->set(static_cast<double>(open_));
  c_opened_->inc();
  trace_->record(now, obs::TraceKind::kEpisodeOpened, s.target, s.target_as);
  // The episode span runs from the first failed round to the close; a
  // residency already under way (SUSPECT, before detection crossed the
  // threshold) re-parents under it so the tree reads episode -> states.
  s.episode_span = spans_->begin(began, "episode", 0, s.target, s.target_as);
  spans_->reparent(s.state_span, s.episode_span);
  if (s.flaps > 0) {
    spans_->annotate(s.episode_span, "flap_generation",
                     static_cast<double>(s.flaps));
  }
  return rec;
}

void EpisodeMachine::close(std::size_t i, double now, EpisodeOutcome outcome,
                           bool holddown) {
  Slot& s = slots_[i];
  EpisodeRecord& rec = records_[s.record];
  rec.outcome = outcome;
  rec.closed_at = now;
  outcomes_[static_cast<std::size_t>(outcome)] += 1;
  ++closed_;
  c_closed_->inc();
  if (obs::Counter* c = c_outcome_[static_cast<std::size_t>(outcome)]) {
    c->inc();
  }
  --open_;
  g_open_->set(static_cast<double>(open_));
  trace_->record(now, obs::TraceKind::kEpisodeClosed, s.target,
                 static_cast<std::uint64_t>(outcome));
  s.last_closed_at = now;
  // Move first so a HOLDDOWN residency still links under the episode span,
  // then close the episode span with its outcome decomposition.
  const obs::SpanId episode_span = s.episode_span;
  if (holddown) {
    s.holddown_until = now + timing_.holddown(s.flaps);
    move(i, EpisodeState::kHolddown, now);
  } else {
    move(i, EpisodeState::kMonitor, now);
  }
  const auto note = [&](const char* key, bool when, double value) {
    if (when) spans_->annotate(episode_span, key, value);
  };
  note("outcome", true, static_cast<double>(outcome));
  note("probe_deferrals", rec.probe_deferrals > 0, rec.probe_deferrals);
  note("budget_deferrals", rec.budget_deferrals > 0, rec.budget_deferrals);
  note("time_to_remediate", rec.remediated_at >= 0.0,
       rec.remediated_at - rec.detected_at);
  note("time_to_repair", rec.repaired_at >= 0.0,
       rec.repaired_at - rec.detected_at);
  spans_->end(episode_span, now);
  s.episode_span = 0;
}

void EpisodeMachine::release(std::size_t i) {
  Slot& s = slots_[i];
  if (s.record == kNoRecord) return;
  free_.push_back(s.record);
  s.record = kNoRecord;
}

void EpisodeMachine::defer_probe(std::size_t i, double now) {
  const Slot& s = slots_[i];
  EpisodeRecord& rec = records_[s.record];
  ++rec.probe_deferrals;
  c_probe_deferrals_->inc();
  const double age = now - rec.opened_at;
  trace_->record(now, obs::TraceKind::kAdmissionDeferred, s.target,
                 s.target_as, age);
  spans_->annotate(s.state_span, "admission_deferred", age);
}

void EpisodeMachine::defer_budget(std::size_t i, double now) {
  const Slot& s = slots_[i];
  EpisodeRecord& rec = records_[s.record];
  ++rec.budget_deferrals;
  c_budget_deferrals_->inc();
  const double age = now - rec.detected_at;
  trace_->record(now, obs::TraceKind::kAnnounceDeferred, s.target,
                 rec.blamed, age);
  spans_->annotate(s.state_span, "announce_deferred", age);
}

void EpisodeMachine::remediated(std::size_t i, double now) {
  EpisodeRecord& rec = records_[slots_[i].record];
  if (rec.remediated_at < 0.0) {
    rec.remediated_at = now;
    d_time_to_remediate_->observe(now - rec.detected_at);
  }
  move(i, EpisodeState::kVerify, now);
}

void EpisodeMachine::repaired(std::size_t i, double now) {
  EpisodeRecord& rec = records_[slots_[i].record];
  rec.repaired_at = now;
  // Detection to the repaired original path: the paper's headline repair
  // latency.
  d_time_to_repair_->observe(now - rec.detected_at);
  trace_->record(now, obs::TraceKind::kRepairObserved, rec.target);
}

void EpisodeMachine::fail_back(std::size_t i, double now) {
  ++records_[slots_[i].record].reisolations;
  c_failbacks_->inc();
  move(i, EpisodeState::kIsolate, now);
}

void EpisodeMachine::annotate(std::size_t i, const char* key, double value) {
  spans_->annotate(slots_[i].state_span, key, value);
}

void EpisodeMachine::watch(std::size_t i, double now) {
  Slot& s = slots_[i];
  // MONITOR is steady state and HOLDDOWN a deliberate cooldown: neither is
  // stuck.
  if (s.stalled || s.state == EpisodeState::kMonitor ||
      s.state == EpisodeState::kHolddown ||
      now - s.entered_at <= kStallSeconds) {
    return;
  }
  s.stalled = true;
  c_stalled_->inc();
  const double age = now - s.entered_at;
  trace_->record(now, obs::TraceKind::kEpisodeStalled, s.target,
                 static_cast<std::uint64_t>(s.state), age);
  spans_->annotate(s.state_span, "stalled_age", age);
  spans_->annotate(s.episode_span, "stalled_in_state",
                   static_cast<double>(s.state));
}

}  // namespace lg::core
