#include "workload/destabilizer.h"

#include <algorithm>

#include "adversary/adversary_plane.h"
#include "bgp/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "topology/addressing.h"
#include "workload/sim_world.h"

namespace lg::workload {

DestabilizerWorkload::DestabilizerWorkload(SimWorld& world,
                                           DestabilizerWorkloadConfig cfg)
    : world_(&world), cfg_(cfg) {
  const auto& plane = adversary::AdversaryPlane::current();
  if (plane.enabled() && plane.config().destabilizer_prevalence > 0.0) {
    c_steps_ = &obs::MetricsRegistry::current().counter(
        "lg.adversary.destabilizer_steps");
  }
  trace_ = &obs::TraceRing::current();
}

void DestabilizerWorkload::start(const std::vector<topo::AsId>& exclude) {
  auto& plane = adversary::AdversaryPlane::current();
  if (!plane.enabled() || plane.config().destabilizer_prevalence <= 0.0) {
    return;
  }
  // The same role classification the engine used when it applied profiles,
  // so the driver animates exactly the ASes the plane marked.
  const adversary::RoleTable roles(world_->graph());
  for (const topo::AsId as : world_->graph().as_ids()) {
    if (destabilizers_.size() >= cfg_.max_destabilizers) break;
    if (!plane.profile_for(as, roles.role(as)).destabilizer) continue;
    if (std::find(exclude.begin(), exclude.end(), as) != exclude.end()) {
      continue;
    }
    destabilizers_.push_back(as);
  }
  for (const topo::AsId as : destabilizers_) {
    for (const adversary::Step& step : adversary::destabilizer_schedule(
             plane.config().seed, as, adversary::DestabilizerConfig{})) {
      if (cfg_.stop_at > 0.0 && step.at >= cfg_.stop_at) break;
      world_->scheduler().after(step.at,
                                [this, as, step] { play(as, step); });
    }
  }
}

void DestabilizerWorkload::play(topo::AsId as, const adversary::Step& step) {
  const double now = world_->scheduler().now();
  if (step.kind == adversary::StepKind::kAnnounce) {
    // Each announcement carries a different prepend count, so it is a new
    // path to every receiver — a re-announcement of an identical path would
    // be a no-op to Adj-RIB-Out diffing and destabilize nothing.
    bgp::OriginPolicy policy;
    policy.default_path =
        bgp::PathRef(bgp::baseline_path(as, 1 + step.prepends));
    world_->engine().originate(as, topo::AddressPlan::production_prefix(as),
                               policy);
  } else {
    world_->engine().withdraw(as, topo::AddressPlan::production_prefix(as));
  }
  ++steps_played_;
  if (c_steps_ != nullptr) c_steps_->inc();
  trace_->record(now, obs::TraceKind::kDestabilizerStep, as,
                 step.kind == adversary::StepKind::kAnnounce ? 1 : 0,
                 static_cast<double>(step.prepends));
}

}  // namespace lg::workload
