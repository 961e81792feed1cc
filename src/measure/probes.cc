#include "measure/probes.h"

#include <cmath>

#include "faults/fault_plane.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace lg::measure {

Prober::Prober(const dp::DataPlane& dataplane, Responsiveness& responsiveness)
    : dp_(&dataplane), resp_(&responsiveness) {
  auto& reg = obs::MetricsRegistry::current();
  c_pings_ = &reg.counter("lg.measure.pings");
  c_spoofed_pings_ = &reg.counter("lg.measure.spoofed_pings");
  c_traceroute_probes_ = &reg.counter("lg.measure.traceroute_probes");
  c_spoofed_traceroute_probes_ =
      &reg.counter("lg.measure.spoofed_traceroute_probes");
  c_option_probes_ = &reg.counter("lg.measure.option_probes");
  c_replies_ = &reg.counter("lg.measure.probe_replies");
  c_losses_ = &reg.counter("lg.measure.probe_losses");
  trace_ = &obs::TraceRing::current();
  faults_ = &faults::FaultPlane::current();
  // Retries only happen on a degraded plane; registering the counter lazily
  // keeps fault-free bench reports byte-identical to the pre-faults layout.
  c_retries_ =
      faults_->enabled() ? &reg.counter("lg.measure.probe_retries") : nullptr;
}

// Responsiveness verdict bookkeeping shared by every ping flavour.
void Prober::trace_ping_outcome(AsId src_as, Ipv4 dst,
                                const PingResult& result) {
  if (result.replied) {
    c_replies_->inc();
    trace_->record(sim_now(), obs::TraceKind::kProbeAnswered, src_as, dst);
  } else {
    c_losses_->inc();
    trace_->record(sim_now(), obs::TraceKind::kProbeLost, src_as, dst);
  }
}

std::optional<RouterId> TracerouteResult::last_responsive() const {
  for (auto it = hops.rbegin(); it != hops.rend(); ++it) {
    if (it->has_value()) return **it;
  }
  return std::nullopt;
}

std::optional<AsId> TracerouteResult::last_responsive_as() const {
  const auto r = last_responsive();
  return r ? std::optional<AsId>(r->as) : std::nullopt;
}

std::vector<AsId> TracerouteResult::responsive_as_path() const {
  std::vector<AsId> out;
  for (const auto& hop : hops) {
    if (!hop) continue;
    if (out.empty() || out.back() != hop->as) out.push_back(hop->as);
  }
  return out;
}

RouterId Prober::responder_for(Ipv4 dst, AsId final_as) const {
  if (const auto r = topo::AddressPlan::router_of(dst); r && r->as == final_as) {
    return *r;
  }
  return dp_->net().core(final_as);
}

bool Prober::target_responds(Ipv4 addr) const {
  if (const auto r = topo::AddressPlan::router_of(addr)) {
    return resp_->router_responds(*r);
  }
  return true;  // hosts in production/sentinel space always answer
}

PingResult Prober::ping_impl(AsId src_as, Ipv4 dst, Ipv4 reply_to) {
  PingResult result;
  if (faults_->enabled()) {
    // A dropped-out vantage point sources nothing; a probe lost on the wire
    // looks identical to an unreachable path from the prober's seat.
    if (!faults_->vantage_up(src_as, sim_now())) {
      faults_->note_vantage_hit(src_as, sim_now());
      return result;
    }
    if (faults_->lose_probe(src_as, sim_now())) return result;
  }
  result.forward = dp_->forward(src_as, dst);
  result.forward_delivered = result.forward.delivered();
  if (!result.forward_delivered) return result;

  const RouterId responder = responder_for(dst, result.forward.final_as);
  const bool is_router = topo::AddressPlan::router_of(dst).has_value();
  result.responder_answered =
      (!is_router || resp_->router_responds(responder)) &&
      !resp_->rate_limited();
  if (!result.responder_answered) return result;

  result.reverse = dp_->forward(result.forward.final_as, reply_to, responder);
  result.reverse_delivered = result.reverse.delivered();
  result.replied = result.reverse_delivered;
  if (result.replied && faults_->enabled()) {
    // Spoofed probes direct the reply at another vantage point; if *that* VP
    // is down, the reply arrives at a dead listener and is never observed.
    if (const auto rcv = topo::AddressPlan::owner_of(reply_to);
        rcv && !faults_->vantage_up(*rcv, sim_now())) {
      faults_->note_vantage_hit(*rcv, sim_now());
      result.replied = false;
    }
  }
  return result;
}

RetriedPing Prober::ping_with_retry(AsId src_as, Ipv4 dst, Ipv4 reply_to,
                                    const RetryPolicy& policy) {
  RetriedPing out;
  for (int i = 0; i < policy.max_attempts; ++i) {
    if (i > 0 && c_retries_ != nullptr) c_retries_->inc();
    out.result = ping(src_as, dst, reply_to);
    ++out.attempts;
    if (out.result.replied) return out;
    // Responsiveness-aware budget: a target whose responder class never
    // answers probes will not start answering on retry — give up after the
    // first attempt rather than spending the whole retry budget on it.
    if (out.result.forward_delivered && !out.result.responder_answered &&
        !target_responds(dst)) {
      return out;
    }
    if (i + 1 < policy.max_attempts) {
      out.modeled_wait_seconds +=
          policy.base_backoff_seconds * std::pow(policy.backoff_multiplier, i);
    }
  }
  return out;
}

PingResult Prober::ping(AsId src_as, Ipv4 dst, Ipv4 reply_to) {
  ++budget_.pings;
  c_pings_->inc();
  trace_->record(sim_now(), obs::TraceKind::kProbeIssued, src_as, dst);
  const PingResult result = ping_impl(src_as, dst, reply_to);
  trace_ping_outcome(src_as, dst, result);
  return result;
}

PingResult Prober::spoofed_ping(AsId src_as, Ipv4 dst, Ipv4 receiver_addr) {
  ++budget_.spoofed_pings;
  c_spoofed_pings_->inc();
  trace_->record(sim_now(), obs::TraceKind::kProbeIssued, src_as, dst);
  const PingResult result = ping_impl(src_as, dst, receiver_addr);
  trace_ping_outcome(src_as, dst, result);
  return result;
}

TracerouteResult Prober::traceroute_impl(AsId src_as, Ipv4 dst, Ipv4 reply_to,
                                         bool spoofed) {
  // Probe rounds are instantaneous in the model, so these render as
  // zero-duration slices; the payload is the per-round probe accounting.
  // Pings are deliberately NOT spanned — they are the per-message hot path.
  auto& spans = obs::SpanRegistry::current();
  const obs::SpanId span =
      spans.begin(sim_now(), spoofed ? "probe.spoofed_traceroute"
                                     : "probe.traceroute",
                  spans.scope_top(), src_as, dst);
  const std::uint64_t probes_before = budget_.total();
  TracerouteResult result;
  if (faults_->enabled() && !faults_->vantage_up(src_as, sim_now())) {
    // VP down: no probes leave the box; the operator sees an empty trace.
    faults_->note_vantage_hit(src_as, sim_now());
    spans.end(span, sim_now());
    return result;
  }
  const auto fwd = dp_->forward(src_as, dst);
  result.forward_status = fwd.status;
  result.true_hops = fwd.hops;

  // One TTL-limited probe per traversed hop. The hop is visible only if the
  // router answers TTL-exceeded AND its reply finds a working path back to
  // `reply_to` — the second condition is what makes traceroute misleading
  // during reverse-path failures (§2.3, §5.3).
  for (const auto& hop : fwd.hops) {
    auto& counter =
        spoofed ? budget_.spoofed_traceroute_probes : budget_.traceroute_probes;
    ++counter;
    (spoofed ? c_spoofed_traceroute_probes_ : c_traceroute_probes_)->inc();
    const bool answers = resp_->router_responds(hop) && !resp_->rate_limited();
    const bool lost =
        faults_->enabled() && faults_->lose_probe(src_as, sim_now());
    if (!answers || lost) {
      result.hops.push_back(std::nullopt);
      continue;
    }
    const auto reply = dp_->forward(hop.as, reply_to, hop);
    if (reply.delivered()) {
      result.hops.push_back(hop);
    } else {
      result.hops.push_back(std::nullopt);
    }
  }

  if (fwd.delivered()) {
    // The final destination's echo reply, subject to the same conditions.
    const RouterId responder = responder_for(dst, fwd.final_as);
    const bool is_router = topo::AddressPlan::router_of(dst).has_value();
    const bool answers =
        (!is_router || resp_->router_responds(responder)) &&
        !resp_->rate_limited();
    if (answers) {
      const auto reply = dp_->forward(fwd.final_as, reply_to, responder);
      result.destination_replied = reply.delivered();
    }
  }
  if (span != 0) {
    spans.annotate(span, "probes",
                   static_cast<double>(budget_.total() - probes_before));
    spans.annotate(span, "responsive_hops",
                   static_cast<double>(result.responsive_as_path().size()));
    spans.end(span, sim_now());
  }
  return result;
}

TracerouteResult Prober::traceroute(AsId src_as, Ipv4 dst, Ipv4 reply_to) {
  return traceroute_impl(src_as, dst, reply_to, /*spoofed=*/false);
}

TracerouteResult Prober::spoofed_traceroute(AsId src_as, Ipv4 dst,
                                            Ipv4 receiver_addr) {
  return traceroute_impl(src_as, dst, receiver_addr, /*spoofed=*/true);
}

std::optional<dp::ForwardResult> Prober::reverse_traceroute(Ipv4 from,
                                                            Ipv4 to_addr) {
  // Amortized measurement cost from §5.4: ~10 IP-option probes plus ~2
  // forward traceroutes per refreshed reverse path.
  budget_.option_probes += 10;
  budget_.traceroute_probes += 2;
  c_option_probes_->inc(10);
  c_traceroute_probes_->inc(2);

  auto& spans = obs::SpanRegistry::current();
  const auto owner = topo::AddressPlan::owner_of(from);
  const obs::SpanId span = spans.begin(
      sim_now(), "probe.reverse_traceroute", spans.scope_top(),
      owner ? static_cast<std::uint64_t>(*owner) : 0, from);
  const auto finish = [&](std::optional<dp::ForwardResult> path) {
    spans.annotate(span, "measured", path.has_value() ? 1.0 : 0.0);
    spans.end(span, sim_now());
    return path;
  };

  if (!owner) return finish(std::nullopt);
  if (!target_responds(from)) return finish(std::nullopt);

  std::optional<RouterId> from_router = topo::AddressPlan::router_of(from);
  auto path = dp_->forward(*owner, to_addr, from_router);
  if (!path.delivered()) return finish(std::nullopt);
  return finish(std::move(path));
}

}  // namespace lg::measure
