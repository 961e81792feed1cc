// lg::obs — bounded event tracer. A fixed-capacity ring of typed events with
// simulated timestamps: BGP UPDATE send/delivery, MRAI deferrals, best-path
// changes, probe issue/answer, episode transitions, and the repair
// lifecycle (detect -> poison -> verify -> unpoison). When the ring
// fills, the oldest events are overwritten and counted as dropped — tracing
// never grows memory with the run.
//
// Tracing is OFF by default (unlike metrics): per-message event capture on a
// multi-million-event convergence run is measurable overhead, so harnesses
// and tests opt in.
#pragma once

#include <cstdint>
#include <vector>

#include "util/codec.h"
#include "util/thread_current.h"

namespace lg::obs {

enum class TraceKind : std::uint8_t {
  // BGP control plane. a = sender AS, b = receiver AS.
  kUpdateSent = 0,
  kWithdrawSent,
  kUpdateDelivered,
  kMraiDefer,
  // a = AS whose best route changed.
  kBestPathChange,
  // Measurement. a = source AS, b = destination address.
  kProbeIssued,
  kProbeAnswered,
  kProbeLost,
  // Remediation. a = blamed AS, b = target address (repairs: a = target).
  kPoisonApplied,
  kSelectivePoisonApplied,
  kEgressShifted,
  kRepairObserved,
  kRepairReverted,
  // Fault plane (lg::faults). a/b = session endpoints or the affected AS;
  // value = extra delay where applicable.
  kFaultUpdateDropped,
  kFaultUpdateDelayed,
  kFaultSessionDown,
  kFaultProbeDropped,
  kFaultVantageDown,
  // Background churn workload. a = flapping origin AS; b = 1 announce,
  // 0 withdraw.
  kChurnFlap,
  // Graceful degradation. a = target/helper context, value = coverage.
  kCoverageDegraded,
  kDecisionDeferred,
  // Engine-side fault consequences. a = sender AS, b = receiver AS.
  // An update counted as sent but eaten by the fault plane (retransmit
  // scheduled), and a send whose delivery was raised to the previous one's
  // on its (session, prefix) to keep order.
  kUpdateLost,
  kUpdateHeld,
  // Episode lifecycle (core::EpisodeMachine). a = target address, b =
  // kind-specific: new EpisodeState, target AS (opened, admission deferral),
  // EpisodeOutcome (closed), blamed AS (announce deferral); value = the
  // deferral's age since the first failed round / detection.
  kEpisodeStateChange,
  kEpisodeOpened,
  kEpisodeClosed,
  kAdmissionDeferred,
  kAnnounceDeferred,
  // Stall watchdog: an episode stuck in one state past the threshold.
  // a = target address, b = state code, value = age in state.
  kEpisodeStalled,
  // Adversarial plane (lg::adversary). Escalation ladder rung applied
  // (a = blamed AS, b = target address, value = rung) and a repair given up
  // as captive (a = blamed AS, b = target address, value = 1 if the control
  // plane did remove the route, i.e. only the data plane is captive).
  kEscalationApplied,
  kCaptiveDeclared,
  // Destabilizing announcer step. a = announcing AS, b = 1 announce /
  // 0 withdraw, value = prepend count on an announce.
  kDestabilizerStep,
  // Sentinel — keep last. tests/test_obs.cc iterates [0, kCount) to pin
  // every kind to a unique trace_kind_name(); adding a kind without a name
  // fails that test instead of printing "?".
  kCount,
};

const char* trace_kind_name(TraceKind k) noexcept;

struct TraceEvent {
  double t = 0.0;  // simulated seconds
  TraceKind kind = TraceKind::kUpdateSent;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  double value = 0.0;  // kind-specific magnitude (e.g. elapsed seconds)
};

// current() is the ring instrumented code records into: the one installed
// on this thread by ScopedTraceRing, else global().
class TraceRing : public util::ThreadCurrent<TraceRing> {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit TraceRing(std::size_t capacity = kDefaultCapacity);

  // Process-wide ring merged results and single-threaded runs land in.
  static TraceRing& global();
  static TraceRing& fallback() { return global(); }

  // Append the events currently held by `other`, oldest first, as if they
  // had been record()ed here (so a disabled destination ring stays empty and
  // wraparound accounting keeps working). Events already overwritten inside
  // `other` are gone — the ring is bounded by design — but they are NOT
  // forgotten: `other`'s drop count carries over into dropped(), so
  // RunReport can surface merge-time loss (per-trial rings that wrapped).
  void merge(const TraceRing& other);

  void set_enabled(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }
  // Honor the LG_TRACE switch (util::env_switch).
  void configure_from_env();

  void record(double t, TraceKind kind, std::uint64_t a = 0,
              std::uint64_t b = 0, double value = 0.0) {
    if (!enabled_) return;
    if (ring_.empty()) allocate();
    ring_[recorded_ % capacity_] = TraceEvent{t, kind, a, b, value};
    ++recorded_;
  }

  std::size_t capacity() const noexcept { return capacity_; }
  // Resets contents.
  void set_capacity(std::size_t capacity);

  // Events currently held (<= capacity).
  std::size_t size() const noexcept {
    return recorded_ < capacity_ ? static_cast<std::size_t>(recorded_)
                                 : capacity_;
  }
  // Total ever recorded into this ring or any ring merged into it. The
  // invariant recorded() == dropped() + size() always holds: events a
  // merged source ring lost to wraparound were recorded upstream, so they
  // count here as recorded-then-dropped.
  std::uint64_t recorded() const noexcept {
    return recorded_ + merge_dropped_;
  }
  // Events lost to local wraparound plus drops inherited via merge().
  std::uint64_t dropped() const noexcept {
    return recorded_ - size() + merge_dropped_;
  }

  // Held events, oldest first.
  std::vector<TraceEvent> events() const;

  void clear();

  // ---- checkpoint ----
  // The enabled flag, the lifetime total recorded() and the held events,
  // oldest first (util::ring). recorded() folds merge-inherited drops in
  // and dropped() is always recorded() - size(), so the total and the held
  // events reproduce both public counters. A loaded ring holds the n saved
  // events as its own pushes and counts the other total - n as inherited
  // drops, since a merged ring's total may exceed what it ever held.
  template <class Ar, class Self>
  static void layout(Ar& ar, Self& self) {
    ar.magic(kTag, kVersion);
    ar.b(self.enabled_);
    std::uint64_t recorded = self.recorded();
    ar.var(recorded);
    if constexpr (Ar::kLoading) {
      self.recorded_ = recorded;
      self.merge_dropped_ = 0;
    }
    // A time, a kind byte, two varints and a value.
    const std::size_t held = util::ring(
        ar, self.ring_, self.recorded_, self.capacity_, 19, "trace ring",
        [&](auto& e) {
          ar.f64(e.t);
          ar.enum8(e.kind,
                   static_cast<TraceKind>(
                       static_cast<int>(TraceKind::kCount) - 1),
                   "trace kind");
          ar.var(e.a);
          ar.var(e.b);
          ar.f64(e.value);
        });
    if constexpr (Ar::kLoading) self.own_loaded(held);
  }

 private:
  static constexpr std::uint32_t kTag = 0x43415254;  // "TRAC"
  // v2: every integer a varint.
  static constexpr std::uint32_t kVersion = 2;

  // Sizes ring_ to capacity_; out of line, since record() sits on the
  // engine's per-update paths.
  void allocate();
  // After a load placed `held` events as the last of recorded_ pushes:
  // makes them the ring's own pushes, oldest in slot 0, and the rest of
  // recorded_ inherited drops.
  void own_loaded(std::size_t held);

  bool enabled_ = false;
  std::size_t capacity_;
  std::uint64_t recorded_ = 0;
  std::uint64_t merge_dropped_ = 0;
  // Empty until the first record(), then capacity_ slots: a ring that
  // records nothing allocates nothing.
  std::vector<TraceEvent> ring_;
};

// Makes a ring the thread-current trace ring.
using ScopedTraceRing = util::Scoped<TraceRing>;

}  // namespace lg::obs
