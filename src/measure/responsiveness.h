// Probe-responsiveness model.
//
// Real measurement systems fight two artifacts the paper calls out
// explicitly (§4.1): routers configured to ignore ICMP (LIFEGUARD keeps a
// historical responsiveness database to tell "unreachable" apart from
// "never answers"), and ICMP rate limiting that drops individual probe
// replies. Both are modelled: never-responders are a deterministic per-router
// property; rate-limit losses are per-probe stochastic.
#pragma once

#include <cstdint>

#include "topology/addressing.h"
#include "util/rng.h"

namespace lg::measure {

struct ResponsivenessConfig {
  // Fraction of routers that never answer probes (deterministic per router).
  double never_respond_frac = 0.08;
  // Per-probe reply loss due to ICMP rate limiting.
  double rate_limit_drop_prob = 0.0;
  std::uint64_t seed = 11;
};

class Responsiveness {
 public:
  explicit Responsiveness(ResponsivenessConfig cfg = {})
      : cfg_(cfg), rng_(cfg.seed, 0x69636d70ULL) {}

  // Is this router configured to answer probes at all? Stable across the
  // whole simulation (it is a router *configuration*).
  bool router_responds(topo::RouterId router) const;

  // One stochastic rate-limit draw (true = this reply was dropped).
  bool rate_limited();

  const ResponsivenessConfig& config() const noexcept { return cfg_; }

  // ---- checkpoint ----
  // The rate-limit RNG. rate_limited() only draws from it when
  // rate_limit_drop_prob > 0, but the stream position must still survive a
  // restore for configs that enable it.
  template <class Ar, class Self>
  static void layout(Ar& ar, Self& self) {
    util::Rng::layout(ar, self.rng_);
  }

 private:
  ResponsivenessConfig cfg_;
  util::Rng rng_;
};

}  // namespace lg::measure
