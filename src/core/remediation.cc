#include "core/remediation.h"

#include "bgp/types.h"

namespace lg::core {

bool original_egress_repaired(bgp::BgpEngine& engine, measure::Prober& prober,
                              const measure::VantagePoint& vp,
                              topo::Ipv4 target) {
  auto& speaker = engine.speaker(vp.as);
  const auto forced = speaker.forced_egress();
  speaker.set_forced_egress(std::nullopt);
  const bool replied = prober.ping(vp.as, target, vp.addr).replied;
  speaker.set_forced_egress(forced);
  return replied;
}

Remediator::Remediator(bgp::BgpEngine& engine, AsId origin,
                       RemediatorConfig cfg)
    : engine_(&engine),
      origin_(origin),
      cfg_(cfg),
      production_(topo::AddressPlan::production_prefix(origin)),
      sentinel_(topo::AddressPlan::sentinel_prefix(origin)) {}

void Remediator::announce_baseline() {
  bgp::OriginPolicy policy;
  policy.default_path = bgp::baseline_path(origin_, cfg_.baseline_prepend);
  engine_->originate(origin_, production_, policy);
  if (cfg_.use_sentinel) {
    bgp::OriginPolicy sentinel_policy;
    sentinel_policy.default_path =
        bgp::baseline_path(origin_, cfg_.baseline_prepend);
    engine_->originate(origin_, sentinel_, sentinel_policy);
  }
  poison_.reset();
}

void Remediator::poison(AsId target) { poison_path({target}); }

void Remediator::poison_path(const std::vector<AsId>& poisons) {
  bgp::OriginPolicy policy;
  policy.default_path =
      bgp::poisoned_path(origin_, poisons, poisoned_len(poisons.size()));
  engine_->originate(origin_, production_, policy);
  poison_ = poisons.empty() ? std::nullopt : std::optional<AsId>(poisons.front());
}

void Remediator::selective_poison(AsId target,
                                  std::span<const AsId> poisoned_providers) {
  bgp::OriginPolicy policy;
  policy.default_path = bgp::baseline_path(origin_, cfg_.baseline_prepend);
  const auto poisoned = bgp::poisoned_path(origin_, {target}, poisoned_len(1));
  for (const AsId provider : poisoned_providers) {
    policy.per_neighbor[provider] = poisoned;
  }
  engine_->originate(origin_, production_, policy);
  poison_ = target;
}

void Remediator::unpoison() {
  bgp::OriginPolicy policy;
  policy.default_path = bgp::baseline_path(origin_, cfg_.baseline_prepend);
  engine_->originate(origin_, production_, policy);
  poison_.reset();
}

void Remediator::withdraw_all() {
  engine_->withdraw(origin_, production_);
  if (cfg_.use_sentinel) engine_->withdraw(origin_, sentinel_);
  poison_.reset();
}

}  // namespace lg::core
