#include "core/decision.h"

namespace lg::core {

double PoisonDecider::alternate_path_fraction(
    AsId origin, AsId blamed, std::span<const AsId> sources) const {
  if (sources.empty()) return 1.0;
  const auto avoid = topo::Avoidance::of_as(blamed);
  std::size_t ok = 0;
  for (const AsId src : sources) {
    if (oracle_.reachable(src, origin, avoid)) ++ok;
  }
  return static_cast<double>(ok) / static_cast<double>(sources.size());
}

PoisonVerdict PoisonDecider::decide(
    AsId origin, AsId blamed, double elapsed,
    std::span<const AsId> affected_sources,
    std::optional<topo::AsLinkKey> blamed_link) const {
  PoisonVerdict verdict;

  if (blamed == origin) {
    verdict.reason = "failure is inside the origin AS; fix locally";
    return verdict;
  }
  // Poisoning a stub cannot help: we poison transit networks that carry our
  // reverse traffic (§7.1), and stubs carry none.
  if (graph_->tier(blamed) == topo::AsTier::kStub) {
    verdict.reason = "blamed AS is a stub (likely the destination edge)";
    return verdict;
  }
  // Don't cut off our only provider chain.
  const auto providers = graph_->providers(origin);
  if (providers.size() == 1 && providers.front() == blamed) {
    verdict.reason = "blamed AS is our sole provider";
    return verdict;
  }
  if (elapsed < cfg_.min_elapsed_seconds) {
    verdict.reason = "outage too young; likely to self-resolve (§4.2)";
    return verdict;
  }
  if (blamed_link) {
    // Link-level blame: selective poisoning only needs a path around the
    // link, which may run through the blamed AS itself.
    const auto avoid = topo::Avoidance::of_link(blamed_link->a, blamed_link->b);
    verdict.alternate_exists = affected_sources.empty();
    for (const AsId src : affected_sources) {
      if (oracle_.reachable(src, origin, avoid)) {
        verdict.alternate_exists = true;
        break;
      }
    }
  } else {
    verdict.alternate_exists =
        alternate_path_fraction(origin, blamed, affected_sources) > 0.0;
  }
  if (cfg_.require_alternate_path && !verdict.alternate_exists) {
    verdict.reason = blamed_link
                         ? "no policy-compliant path avoids the blamed link"
                         : "no policy-compliant alternate path avoids the "
                           "blamed AS";
    return verdict;
  }
  verdict.poison = true;
  verdict.reason = "persistent outage with alternate paths available";
  return verdict;
}

std::optional<AsId> PoisonDecider::alternate_egress(AsId origin, AsId blamed,
                                                    AsId target_as) const {
  for (const AsId provider : graph_->providers(origin)) {
    if (provider == blamed) continue;
    if (oracle_.reachable(provider, target_as,
                          topo::Avoidance::of_as(blamed))) {
      return provider;
    }
  }
  return std::nullopt;
}

}  // namespace lg::core
