// lg::fleet — resource governance for the always-on service plane.
//
// The paper's §5.4 / Table 2 analysis makes announcement volume the binding
// constraint of Internet-scale deployment: a system repairing many outages
// at once must pace its BGP announcements or it *becomes* the instability
// it is fighting, and Smith et al.'s poisoning study (PAPERS.md) reaches the
// same conclusion from the measurement side. Probing is the other scarce
// resource — an isolation costs ~280 probes (§5.4), so a burst of
// correlated outages must not stampede the measurement plane.
//
// Both budgets are lazy token buckets over *simulated* time, so enforcement
// is deterministic: the same run always grants and denies the same requests
// regardless of thread count or wall-clock.
#pragma once

#include <cstdint>

namespace lg::fleet {

// Bucket rates and depths for the fleet and the service plane: fleet-wide
// poison/prepend announcements per hour and a burst of them (split over the
// shards, each keeping a floor of one token so it can make progress), and
// the probes per second each shard may spend on isolations with a burst of
// about two isolations (§5.4). The service plane's announcement rate is a
// setting (ServiceConfig::announce_per_hour) that defaults to this one.
inline constexpr double kAnnouncePerHour = 60.0;
inline constexpr double kAnnounceBurst = 16.0;
inline constexpr double kProbeRatePerSecond = 10.0;
inline constexpr double kProbeBurst = 600.0;

// Deterministic token bucket. Refill is computed lazily from the last
// update's simulated timestamp; there is no background task.
class TokenBucket {
 public:
  // `rate_per_second` tokens accrue continuously up to `burst` capacity.
  // The bucket starts full. A zero rate makes the bucket burst-only.
  TokenBucket(double rate_per_second, double burst);

  // Spend `cost` tokens at simulated time `now` if available.
  bool try_spend(double now, double cost);
  // Return unused tokens (e.g. an admission estimate that overshot the
  // measured cost). Never exceeds the burst capacity.
  void credit(double amount);
  // Unconditionally draw down up to `amount` tokens (clamped at zero)
  // without touching the granted/denied counters — settlement of a cost
  // overrun that was already admitted.
  void debit(double now, double amount);

  // Tokens available at `now` (refill applied, nothing spent).
  double level(double now);

  double rate() const noexcept { return rate_; }
  double burst() const noexcept { return burst_; }
  // Simulated timestamp of the last refill — i.e. how much of the bucket's
  // lifetime the lazy refill has actually accounted for.
  double last_refill() const noexcept { return last_; }
  // Totals over the bucket's lifetime.
  double spent() const noexcept { return spent_; }
  std::uint64_t granted() const noexcept { return granted_; }
  std::uint64_t denied() const noexcept { return denied_; }

  // The hard ceiling on what can possibly be spent in `horizon` seconds:
  // the initial burst plus everything the refill can add. spend() can never
  // exceed this, which is the invariant the fleet bench asserts.
  double capacity(double horizon_seconds) const noexcept {
    return burst_ + rate_ * horizon_seconds;
  }

  // ---- checkpoint ----
  // The mutable state (util/codec.h archives); rate and burst are
  // configuration, which the constructor rebuilds on restore.
  template <class Ar, class Self>
  static void layout(Ar& ar, Self& self) {
    ar.magic(kTag, kVersion);
    ar.f64(self.tokens_);
    ar.f64(self.last_);
    ar.f64(self.spent_);
    ar.var(self.granted_);
    ar.var(self.denied_);
  }

 private:
  static constexpr std::uint32_t kTag = 0x544b4342;  // "BCKT"
  // v2: every integer a varint.
  static constexpr std::uint32_t kVersion = 2;

  void refill(double now);

  double rate_;
  double burst_;
  double tokens_;
  double last_ = 0.0;
  double spent_ = 0.0;
  std::uint64_t granted_ = 0;
  std::uint64_t denied_ = 0;
};

// Global pacing of poison/prepend announcements. One token = one
// re-announcement of the production prefix with a changed poison set.
// Reverting to the baseline is deliberately free: revert volume is bounded
// by previously granted poisons, so the bucket still bounds total churn at
// twice its capacity, and a fleet must never be blocked from *restoring*
// the baseline.
class AnnouncementBudget {
 public:
  AnnouncementBudget(double rate_per_second, double burst)
      : bucket_(rate_per_second, burst) {}

  bool try_announce(double now) { return bucket_.try_spend(now, 1.0); }

  // Fraction of the budget's hard ceiling consumed so far, in [0, 1].
  // The ceiling is computed over the longer of the caller's nominal horizon
  // and the time the bucket has actually run: a caller passing a horizon
  // shorter than elapsed time (e.g. a drain phase running past the trace
  // horizon) would otherwise divide spend accrued over `last_refill()`
  // seconds by a smaller capacity and read > 1.0. The final clamp absorbs
  // only floating-point residue.
  double utilization(double horizon_seconds) const noexcept {
    const double window = horizon_seconds > bucket_.last_refill()
                              ? horizon_seconds
                              : bucket_.last_refill();
    const double cap = bucket_.capacity(window);
    if (cap <= 0.0) return 0.0;
    const double u = bucket_.spent() / cap;
    return u < 1.0 ? u : 1.0;
  }

  TokenBucket& bucket() noexcept { return bucket_; }
  const TokenBucket& bucket() const noexcept { return bucket_; }

 private:
  TokenBucket bucket_;
};

// Admission controller for isolation measurement campaigns. Each admission
// reserves the *estimated* probe cost of one isolation from a probe-rate
// bucket; when the isolation finishes, the difference between estimate and
// measured cost is settled (credited back or spent on top), and the
// estimate adapts by EWMA so the controller tracks what isolations really
// cost in this world. Callers decide admission order — the EpisodeManager
// ranks suspects by estimated impact and admits high-impact episodes first,
// deferring the rest (graceful degradation instead of a probe stampede).
class ProbeAdmission {
 public:
  // The estimate starts at the §5.4 prior of ~280 probes per isolation.
  ProbeAdmission(double probe_rate_per_second, double burst);

  // Reserve one isolation's estimated probe cost. False = defer.
  bool try_admit(double now);
  // Report the measured cost of an admitted isolation.
  void settle(double now, double measured_probes);

  double cost_estimate() const noexcept { return estimate_; }
  double cost_floor() const noexcept {
    return kInitialCostEstimate * kCostFloorFraction;
  }
  std::uint64_t admitted() const noexcept { return bucket_.granted(); }
  std::uint64_t deferred() const noexcept { return bucket_.denied(); }

  TokenBucket& bucket() noexcept { return bucket_; }
  const TokenBucket& bucket() const noexcept { return bucket_; }

  // ---- checkpoint ----
  // The bucket, then the adapted cost estimate.
  template <class Ar, class Self>
  static void layout(Ar& ar, Self& self) {
    TokenBucket::layout(ar, self.bucket_);
    ar.f64(self.estimate_);
  }

 private:
  // The paper's ~280 probes per isolated outage (§5.4).
  static constexpr double kInitialCostEstimate = 280.0;
  // How far the EWMA may decay below that prior: a run of trivially cheap
  // isolations (e.g. the first traceroute already fails, costing a handful
  // of probes) must not drive the estimate toward zero, or admission
  // becomes free and the next real isolation stampedes the probe budget
  // with no reservation backing it. The floor is a fraction of the prior,
  // so the prior keeps anchoring admission even after heavy adaptation.
  static constexpr double kCostFloorFraction = 0.25;
  static constexpr double kEwmaAlpha = 0.3;

  TokenBucket bucket_;
  double estimate_ = kInitialCostEstimate;
};

}  // namespace lg::fleet
