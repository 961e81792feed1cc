#include "core/isolation.h"

#include <algorithm>
#include <unordered_set>

namespace lg::core {

namespace {
// Helpers used for spoofed direction probes.
constexpr std::size_t kMaxHelpers = 5;
// Pings per candidate router (the paper sends pairs to absorb loss).
constexpr int kPingsPerCandidate = 2;
// Modeled wall-clock costs, calibrated to the deployment's measured 140 s
// mean for reverse-path isolations (§5.4): spoofed direction round,
// working-direction measurement, one candidate's share of a batched ping
// round (25 pings in 10 s), and each reverse traceroute sent during
// pruning.
constexpr double kDirectionStageSeconds = 35.0;
constexpr double kWorkingPathStageSeconds = 30.0;
constexpr double kCandidatePingSeconds = 10.0 / 25.0;
constexpr double kReverseTracerouteSeconds = 15.0;
}  // namespace

const char* direction_name(FailureDirection d) noexcept {
  switch (d) {
    case FailureDirection::kNone:
      return "none";
    case FailureDirection::kForward:
      return "forward";
    case FailureDirection::kReverse:
      return "reverse";
    case FailureDirection::kBidirectional:
      return "bidirectional";
  }
  return "?";
}

FailureDirection IsolationEngine::isolate_direction(
    const VantagePoint& vp, Ipv4 target, std::span<const VantagePoint> helpers,
    std::optional<VantagePoint>& fwd_witness) {
  bool forward_ok = false;
  bool reverse_ok = false;
  std::size_t used = 0;
  for (const auto& helper : helpers) {
    if (used++ >= kMaxHelpers) break;
    // Probe leaves the vantage point toward the target, reply is spoofed to
    // land at the helper: success certifies the *forward* direction.
    if (!forward_ok &&
        prober_->spoofed_ping(vp.as, target, helper.addr).replied) {
      forward_ok = true;
      fwd_witness = helper;
    }
    // Probe leaves the helper, reply is spoofed to come back to the vantage
    // point: success certifies the *reverse* direction.
    if (!reverse_ok &&
        prober_->spoofed_ping(helper.as, target, vp.addr).replied) {
      reverse_ok = true;
    }
    if (forward_ok && reverse_ok) break;
  }
  if (forward_ok && reverse_ok) return FailureDirection::kNone;
  if (forward_ok) return FailureDirection::kReverse;
  if (reverse_ok) return FailureDirection::kForward;
  return FailureDirection::kBidirectional;
}

bool IsolationEngine::reachable_from_vp(const VantagePoint& vp,
                                        RouterId router) {
  const auto addr = topo::AddressPlan::router_address(router);
  for (int i = 0; i < kPingsPerCandidate; ++i) {
    if (prober_->ping(vp.as, addr, vp.addr).replied) return true;
  }
  return false;
}

bool IsolationEngine::reachable_from_helper(
    std::span<const VantagePoint> helpers, RouterId router) {
  const auto addr = topo::AddressPlan::router_address(router);
  std::size_t used = 0;
  for (const auto& helper : helpers) {
    if (used++ >= 2) break;  // a couple of helpers suffice
    if (prober_->ping(helper.as, addr, helper.addr).replied) return true;
  }
  return false;
}

std::optional<AsId> IsolationEngine::traceroute_only_blame(
    const VantagePoint& vp, Ipv4 target,
    const measure::TracerouteResult& tr) const {
  // The operator heuristic the paper contrasts against (Fig. 4): "the
  // problem appears to be between the last responsive hop and whatever
  // comes next" — i.e. inside the last hop's AS when the path continues
  // there, or in the next AS when the traceroute died at an AS boundary.
  const auto last = tr.last_responsive();
  if (!last) return std::nullopt;
  if (const auto* fwd = atlas_->latest_forward(vp, target)) {
    const auto& hops = fwd->hops;
    const auto it = std::find(hops.begin(), hops.end(), *last);
    if (it != hops.end() && it + 1 != hops.end()) {
      return (it + 1)->as;  // == last->as unless the path crossed a boundary
    }
  }
  return last->as;
}

void IsolationEngine::blame_forward(const VantagePoint& vp, Ipv4 target,
                                    IsolationResult& out) {
  // Failing direction is measurable directly: traceroute toward the target.
  const auto tr = prober_->traceroute(vp.as, target, vp.addr);
  out.modeled_seconds += kWorkingPathStageSeconds;
  out.traceroute_blame = traceroute_only_blame(vp, target, tr);

  const auto last = tr.last_responsive();
  if (!last) return;

  // Locate the last responsive hop on the freshest forward path we know and
  // look at where the packet was headed next.
  const std::vector<RouterId>* reference = nullptr;
  if (!tr.true_hops.empty()) reference = &tr.true_hops;
  const auto* hist = atlas_->latest_forward(vp, target);
  if (reference == nullptr && hist != nullptr) reference = &hist->hops;
  if (reference == nullptr) {
    out.blamed_as = last->as;
    return;
  }
  const auto it = std::find(reference->begin(), reference->end(), *last);
  if (it == reference->end() || it + 1 == reference->end()) {
    out.blamed_as = last->as;
    return;
  }
  // Advance past hops the responsiveness DB says never answer probes: their
  // silence carries no signal (§4.1.1), so the boundary of interest is the
  // first hop we *expected* to hear from.
  auto next_it = it + 1;
  while (next_it + 1 != reference->end() &&
         !atlas_->ever_responded(*next_it)) {
    ++next_it;
  }
  const RouterId next = *next_it;
  if (next.as == last->as) {
    // Dropped inside the last responsive hop's AS.
    out.blamed_as = last->as;
    return;
  }
  // The path died at an AS boundary. Disambiguate with the candidate-ping
  // results: if the next AS's routers could not reach us at all (they are in
  // the suspect set), the box beyond the boundary is broken in both
  // directions — blame it. Otherwise the next AS is healthy and the failure
  // sits on the link itself.
  const bool next_is_suspect =
      std::find(out.suspect_ases.begin(), out.suspect_ases.end(), next.as) !=
      out.suspect_ases.end();
  if (next_is_suspect) {
    out.blamed_as = next.as;
    out.blamed_link = topo::AsLinkKey(last->as, next.as);
  } else {
    out.blamed_link = topo::AsLinkKey(last->as, next.as);
    // The near side is the selective-poisoning target (§3.1.2).
    out.blamed_as = last->as;
  }
}

void IsolationEngine::blame_reverse(const VantagePoint& vp, Ipv4 target,
                                    IsolationResult& out) {
  const auto* history = atlas_->reverse_history(vp, target);
  if (history == nullptr || history->empty()) return;

  // Walk reverse-path records newest to oldest; §4.1.2 expands to older
  // paths when the most recent one yields no horizon.
  for (auto rec = history->rbegin(); rec != history->rend(); ++rec) {
    // Stored target-side first; analyze from the vantage point's end.
    const auto& hops = rec->hops;
    std::optional<RouterId> horizon;       // farthest hop that reaches us
    std::optional<RouterId> first_beyond;  // first hop past it that doesn't
    for (auto it = hops.rbegin(); it != hops.rend(); ++it) {
      const RouterId router = *it;
      if (router.as == vp.as) continue;
      if (!atlas_->ever_responded(router)) continue;  // ICMP-deaf: no signal
      out.modeled_seconds += kCandidatePingSeconds;
      if (reachable_from_vp(vp, router)) {
        horizon = router;
      } else {
        first_beyond = router;
        break;
      }
    }
    if (!first_beyond) continue;  // everything on this record reaches us

    out.blamed_as = first_beyond->as;
    if (horizon && horizon->as != first_beyond->as) {
      out.blamed_link = topo::AsLinkKey(horizon->as, first_beyond->as);
    }
    // Having found the horizon on the freshest usable record, stop.
    return;
  }
}

IsolationResult IsolationEngine::isolate(const VantagePoint& vp, Ipv4 target,
                                         std::span<const VantagePoint> helpers) {
  IsolationResult out;
  const auto budget_before = prober_->budget().total();

  // Step 1: confirm the failure is still there.
  if (prober_->ping(vp.as, target, vp.addr).replied ||
      prober_->ping(vp.as, target, vp.addr).replied) {
    out.target_reachable = true;
    out.probes_used = prober_->budget().total() - budget_before;
    return out;
  }

  // Step 2: direction via spoofed pings.
  std::optional<VantagePoint> fwd_witness;
  out.direction = isolate_direction(vp, target, helpers, fwd_witness);
  out.modeled_seconds += kDirectionStageSeconds;
  if (out.direction == FailureDirection::kNone) {
    out.target_reachable = true;
    out.probes_used = prober_->budget().total() - budget_before;
    return out;
  }

  // Step 3: measure the working direction. For reverse failures this is a
  // spoofed traceroute (replies land on the witness helper); it refreshes
  // our view of the forward path and often provides a valid policy path for
  // the failing direction too (§4.1.2).
  if (out.direction == FailureDirection::kReverse && fwd_witness) {
    const auto spoofed_tr =
        prober_->spoofed_traceroute(vp.as, target, fwd_witness->addr);
    out.modeled_seconds += kWorkingPathStageSeconds;
    // Feed newly confirmed responsive hops into the atlas.
    for (const auto& hop : spoofed_tr.hops) {
      if (hop) atlas_->note_response(*hop, 0.0);
    }
  } else if (out.direction == FailureDirection::kForward) {
    if (prober_->reverse_traceroute(target, vp.addr)) {
      out.modeled_seconds += kReverseTracerouteSeconds;
    }
  }

  // Steps 4-5: test candidates in the failing direction and draw the
  // reachability horizon.
  const auto candidates = atlas_->candidate_routers(vp, target);
  std::unordered_set<AsId> suspect_set;
  for (const auto& router : candidates) {
    if (router.as == vp.as) continue;
    if (!atlas_->ever_responded(router)) continue;
    out.modeled_seconds += kCandidatePingSeconds;
    if (!reachable_from_vp(vp, router)) {
      suspect_set.insert(router.as);
      // Distinguish "cannot reach us" from "down entirely" — a router that
      // answers helpers has working outbound paths elsewhere, which is what
      // pins the blame on its path *to us* (§4.1.2's Rostelecom argument).
      (void)reachable_from_helper(helpers, router);
    }
  }
  out.suspect_ases.assign(suspect_set.begin(), suspect_set.end());
  std::sort(out.suspect_ases.begin(), out.suspect_ases.end());

  if (out.direction == FailureDirection::kReverse) {
    blame_reverse(vp, target, out);
    // Traceroute-only diagnosis for the comparison study: what the operator
    // would have concluded from a plain forward traceroute.
    const auto tr = prober_->traceroute(vp.as, target, vp.addr);
    out.traceroute_blame = traceroute_only_blame(vp, target, tr);
  } else {
    blame_forward(vp, target, out);
  }

  out.probes_used = prober_->budget().total() - budget_before;
  return out;
}

}  // namespace lg::core
