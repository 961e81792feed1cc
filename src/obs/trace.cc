#include "obs/trace.h"

#include <algorithm>

#include "util/env_knobs.h"

namespace lg::obs {

const char* trace_kind_name(TraceKind k) noexcept {
  switch (k) {
    case TraceKind::kUpdateSent:
      return "update_sent";
    case TraceKind::kWithdrawSent:
      return "withdraw_sent";
    case TraceKind::kUpdateDelivered:
      return "update_delivered";
    case TraceKind::kMraiDefer:
      return "mrai_defer";
    case TraceKind::kBestPathChange:
      return "best_path_change";
    case TraceKind::kProbeIssued:
      return "probe_issued";
    case TraceKind::kProbeAnswered:
      return "probe_answered";
    case TraceKind::kProbeLost:
      return "probe_lost";
    case TraceKind::kPoisonApplied:
      return "poison_applied";
    case TraceKind::kSelectivePoisonApplied:
      return "selective_poison_applied";
    case TraceKind::kEgressShifted:
      return "egress_shifted";
    case TraceKind::kRepairObserved:
      return "repair_observed";
    case TraceKind::kRepairReverted:
      return "repair_reverted";
    case TraceKind::kFaultUpdateDropped:
      return "fault_update_dropped";
    case TraceKind::kFaultUpdateDelayed:
      return "fault_update_delayed";
    case TraceKind::kFaultSessionDown:
      return "fault_session_down";
    case TraceKind::kFaultProbeDropped:
      return "fault_probe_dropped";
    case TraceKind::kFaultVantageDown:
      return "fault_vantage_down";
    case TraceKind::kChurnFlap:
      return "churn_flap";
    case TraceKind::kCoverageDegraded:
      return "coverage_degraded";
    case TraceKind::kDecisionDeferred:
      return "decision_deferred";
    case TraceKind::kUpdateLost:
      return "update_lost";
    case TraceKind::kUpdateHeld:
      return "update_held";
    case TraceKind::kEpisodeStateChange:
      return "episode_state_change";
    case TraceKind::kEpisodeOpened:
      return "episode_opened";
    case TraceKind::kEpisodeClosed:
      return "episode_closed";
    case TraceKind::kAdmissionDeferred:
      return "admission_deferred";
    case TraceKind::kAnnounceDeferred:
      return "announce_deferred";
    case TraceKind::kEpisodeStalled:
      return "episode_stalled";
    case TraceKind::kEscalationApplied:
      return "escalation_applied";
    case TraceKind::kCaptiveDeclared:
      return "captive_declared";
    case TraceKind::kDestabilizerStep:
      return "destabilizer_step";
    case TraceKind::kCount:
      return "?";
  }
  return "?";
}

TraceRing::TraceRing(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

TraceRing& TraceRing::global() {
  static TraceRing ring;
  return ring;
}

void TraceRing::merge(const TraceRing& other) {
  if (enabled_) merge_dropped_ += other.dropped();
  for (const TraceEvent& ev : other.events()) {
    record(ev.t, ev.kind, ev.a, ev.b, ev.value);
  }
}

void TraceRing::configure_from_env() {
  enabled_ = util::env_switch("LG_TRACE", enabled_);
}

void TraceRing::allocate() { ring_.resize(capacity_); }

void TraceRing::own_loaded(std::size_t held) {
  if (held > 0) {
    const auto oldest = static_cast<std::ptrdiff_t>((recorded_ - held) %
                                                    capacity_);
    std::rotate(ring_.begin(), ring_.begin() + oldest, ring_.end());
  }
  merge_dropped_ = recorded_ - held;
  recorded_ = held;
}

void TraceRing::set_capacity(std::size_t capacity) {
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.clear();
  recorded_ = 0;
  merge_dropped_ = 0;
}

std::vector<TraceEvent> TraceRing::events() const {
  std::vector<TraceEvent> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t first = recorded_ - n;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(first + i) % capacity_]);
  }
  return out;
}

void TraceRing::clear() {
  recorded_ = 0;
  merge_dropped_ = 0;
}

}  // namespace lg::obs
