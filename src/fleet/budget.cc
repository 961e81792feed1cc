#include "fleet/budget.h"

#include <algorithm>

namespace lg::fleet {

TokenBucket::TokenBucket(double rate_per_second, double burst)
    : rate_(std::max(0.0, rate_per_second)),
      burst_(std::max(0.0, burst)),
      tokens_(burst_) {}

void TokenBucket::refill(double now) {
  if (now <= last_) return;
  tokens_ = std::min(burst_, tokens_ + rate_ * (now - last_));
  last_ = now;
}

bool TokenBucket::try_spend(double now, double cost) {
  refill(now);
  if (tokens_ + 1e-9 < cost) {
    ++denied_;
    return false;
  }
  tokens_ -= cost;
  spent_ += cost;
  ++granted_;
  return true;
}

void TokenBucket::credit(double amount) {
  if (amount <= 0.0) return;
  spent_ = std::max(0.0, spent_ - amount);
  tokens_ = std::min(burst_, tokens_ + amount);
}

void TokenBucket::debit(double now, double amount) {
  if (amount <= 0.0) return;
  refill(now);
  const double taken = std::min(amount, tokens_);
  tokens_ -= taken;
  spent_ += taken;
}

double TokenBucket::level(double now) {
  refill(now);
  return tokens_;
}

ProbeAdmission::ProbeAdmission(double probe_rate_per_second, double burst)
    : bucket_(probe_rate_per_second, burst) {}

bool ProbeAdmission::try_admit(double now) {
  return bucket_.try_spend(now, estimate_);
}

void ProbeAdmission::settle(double now, double measured_probes) {
  if (measured_probes < estimate_) {
    bucket_.credit(estimate_ - measured_probes);
  } else if (measured_probes > estimate_) {
    // Overrun: draw down whatever is left rather than going negative, so a
    // long isolation still delays the next admission.
    bucket_.debit(now, measured_probes - estimate_);
  }
  const double ewma =
      (1.0 - kEwmaAlpha) * estimate_ + kEwmaAlpha * measured_probes;
  // Clamp at the floor: cheap isolations adapt the estimate down, but never
  // so far that admission stops reserving meaningful probe capacity.
  estimate_ = std::max(cost_floor(), ewma);
}

}  // namespace lg::fleet
