// Active measurement primitives over the simulated data plane.
//
// These mirror the paper's toolbox exactly (§4.1):
//  * ping            — forward leg + reply leg; fails if either direction or
//                      the responder fails.
//  * traceroute      — per-TTL probes; a hop shows as '*' when the hop is
//                      unresponsive OR its *reply* cannot get back, which is
//                      why traceroute "lies" under reverse-path failures.
//  * spoofed ping    — forward leg from S, reply leg to a different vantage
//                      point R; isolates which direction of a path is broken.
//  * spoofed traceroute — per-TTL with replies to R; measures the forward
//                      path even when the reverse path from the destination
//                      is dead.
//  * reverse traceroute — the path *back* from a responsive destination,
//                      with the IP-option probe cost accounting of [19]/§5.4.
//
// Every probe increments a ProbeBudget so harnesses can reproduce the
// paper's measurement-overhead numbers (≈280 probes per isolated outage).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dataplane/forwarding.h"
#include "measure/responsiveness.h"
#include "util/rng.h"
#include "util/scheduler.h"

namespace lg::obs {
class Counter;
class TraceRing;
}  // namespace lg::obs

namespace lg::faults {
class FaultPlane;
}  // namespace lg::faults

namespace lg::measure {

using topo::AsId;
using topo::Ipv4;
using topo::RouterId;

struct ProbeBudget {
  std::uint64_t pings = 0;
  std::uint64_t traceroute_probes = 0;
  std::uint64_t spoofed_pings = 0;
  std::uint64_t spoofed_traceroute_probes = 0;
  std::uint64_t option_probes = 0;  // reverse traceroute RR/TS probes

  std::uint64_t total() const noexcept {
    return pings + traceroute_probes + spoofed_pings +
           spoofed_traceroute_probes + option_probes;
  }
  void reset() { *this = ProbeBudget{}; }
};

// A ping's verdict and which of its steps went through. Both legs walk the
// data plane through DataPlane::reach(), so no router path is kept: a
// caller that needs one runs a traceroute.
struct PingResult {
  bool replied = false;
  // Which leg failed (both may be fine when the responder rate-limits).
  bool forward_delivered = false;
  bool reverse_delivered = false;
  bool responder_answered = false;
};

// Retry schedule for ping_with_retry. Backoff is *modeled* (accumulated into
// RetriedPing::modeled_wait_seconds), not simulated waiting — probes are
// instantaneous in this model, so callers fold the wait into their own
// modeled-time accounting.
struct RetryPolicy {
  int max_attempts = 3;
  double base_backoff_seconds = 1.0;
  double backoff_multiplier = 2.0;
};

struct RetriedPing {
  PingResult result;  // first successful attempt, or the last one tried
  int attempts = 0;
  double modeled_wait_seconds = 0.0;  // sum of backoff gaps actually waited
};

struct TracerouteResult {
  // One entry per traversed router hop; nullopt = '*' (no reply).
  std::vector<std::optional<RouterId>> hops;
  // Router identities actually traversed: ground truth a real operator
  // never sees for silent hops. The path atlas records it as a target's
  // forward path (core/atlas.cc), and isolation finds the hop after the
  // last responsive one on it (core/isolation.cc): the model's stand-in for
  // the paths an operator assembles from earlier traceroutes.
  std::vector<RouterId> true_hops;
  dp::DeliveryStatus forward_status = dp::DeliveryStatus::kNoRoute;
  bool destination_replied = false;

  // Last hop that answered, if any.
  std::optional<RouterId> last_responsive() const;
  // AS of that hop.
  std::optional<AsId> last_responsive_as() const;
  // AS-level rendering with '*' gaps collapsed.
  std::vector<AsId> responsive_as_path() const;
};

class Prober {
 public:
  Prober(const dp::DataPlane& dataplane, Responsiveness& responsiveness);

  // Attach the simulation clock so probe trace events carry simulated
  // timestamps (probes themselves are instantaneous in the model).
  void attach_clock(const util::Scheduler& sched) { clock_ = &sched; }

  // Echo request from inside `src_as` to `dst`; reply addressed to
  // `reply_to` (normally an address inside src_as; a *spoofed* probe passes
  // another vantage point's address).
  PingResult ping(AsId src_as, Ipv4 dst, Ipv4 reply_to);
  PingResult spoofed_ping(AsId src_as, Ipv4 dst, Ipv4 receiver_addr);

  // Ping with bounded retry + exponential backoff, for probing through a
  // lossy measurement plane (lg::faults probe loss / vantage dropout). The
  // budget is responsiveness-aware: a target that is *deterministically*
  // unresponsive (filtered class, never answers) aborts after one attempt
  // instead of burning max_attempts probes on it. Deterministic under a
  // fixed fault seed — retries consume the same per-source fault sequence
  // regardless of thread count or wall-clock.
  RetriedPing ping_with_retry(AsId src_as, Ipv4 dst, Ipv4 reply_to,
                              const RetryPolicy& policy = {});

  TracerouteResult traceroute(AsId src_as, Ipv4 dst, Ipv4 reply_to);
  TracerouteResult spoofed_traceroute(AsId src_as, Ipv4 dst,
                                      Ipv4 receiver_addr);

  // Reverse path measurement from the AS owning `from` back to `to_addr`.
  // Succeeds only if the far end answers probes; costs option probes plus
  // two traceroutes' worth of budget (the paper's amortized refresh cost,
  // §5.4). Returns the router-level path, or nullopt if unmeasurable.
  std::optional<dp::ForwardResult> reverse_traceroute(Ipv4 from, Ipv4 to_addr);

  // Does the router (or host address) answer probes at all?
  bool target_responds(Ipv4 addr) const;

  ProbeBudget& budget() noexcept { return budget_; }
  const dp::DataPlane& dataplane() const noexcept { return *dp_; }

 private:
  // Identify the responding router for an address delivered into an AS.
  RouterId responder_for(Ipv4 dst, AsId final_as) const;
  PingResult ping_impl(AsId src_as, Ipv4 dst, Ipv4 reply_to);
  TracerouteResult traceroute_impl(AsId src_as, Ipv4 dst, Ipv4 reply_to,
                                   bool spoofed);

  double sim_now() const noexcept { return clock_ != nullptr ? clock_->now() : 0.0; }
  void trace_ping_outcome(AsId src_as, Ipv4 dst, const PingResult& result);

  const dp::DataPlane* dp_;
  Responsiveness* resp_;
  ProbeBudget budget_;
  const util::Scheduler* clock_ = nullptr;
  // Fault plane resolved at construction; disabled => hooks are one branch.
  faults::FaultPlane* faults_;

  // Observability handles, resolved once at construction (see obs/metrics.h).
  obs::Counter* c_pings_;
  obs::Counter* c_spoofed_pings_;
  obs::Counter* c_traceroute_probes_;
  obs::Counter* c_spoofed_traceroute_probes_;
  obs::Counter* c_option_probes_;
  obs::Counter* c_replies_;
  obs::Counter* c_losses_;
  obs::Counter* c_retries_;
  obs::TraceRing* trace_;
};

}  // namespace lg::measure
