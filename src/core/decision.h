// Deciding whether to poison (§4.2).
//
// Two gates: (1) the outage must have persisted long enough that routing
// protocols are unlikely to fix it on their own — the EC2 residual-duration
// analysis shows an outage that survived 5 minutes most likely survives
// several more, so acting is worth the churn; (2) an alternate
// policy-compliant path avoiding the blamed AS must exist a priori
// (checked on the AS graph exactly as in the paper's §5.1 simulation),
// otherwise poisoning would only disconnect more networks.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "topology/as_graph.h"
#include "topology/valley_free.h"

namespace lg::core {

using topo::AsId;

struct DecisionConfig {
  // Minimum outage age before poisoning (detection + isolation latency are
  // part of this budget; the paper argues ~5 minutes).
  double min_elapsed_seconds = 300.0;
  // Require the a-priori alternate-path check to pass.
  bool require_alternate_path = true;
};

struct PoisonVerdict {
  bool poison = false;
  bool alternate_exists = false;
  std::string reason;
};

class PoisonDecider {
 public:
  PoisonDecider(const topo::AsGraph& graph, DecisionConfig cfg = {})
      : graph_(&graph), oracle_(graph), cfg_(cfg) {}

  // Should `origin` poison `blamed` for an outage that began `elapsed`
  // seconds ago and affects traffic from `affected_sources`? When the
  // isolation pinned the failure to a specific inter-AS link, pass it: the
  // alternate-path requirement then only needs a path around the *link*
  // (selective poisoning can keep the blamed AS in play, §3.1.2).
  PoisonVerdict decide(AsId origin, AsId blamed, double elapsed,
                       std::span<const AsId> affected_sources,
                       std::optional<topo::AsLinkKey> blamed_link =
                           std::nullopt) const;

  // Fraction of sources with a valley-free path to `origin` avoiding
  // `blamed` (1.0 when `affected_sources` is empty).
  double alternate_path_fraction(AsId origin, AsId blamed,
                                 std::span<const AsId> sources) const;

  // Where a forward failure's egress shift sends traffic: the first of
  // `origin`'s providers, in graph order, other than `blamed` with a policy
  // path to `target_as` avoiding `blamed`. nullopt when none has one.
  std::optional<AsId> alternate_egress(AsId origin, AsId blamed,
                                       AsId target_as) const;

  // The minimum outage age decide() poisons at (DecisionConfig).
  double min_elapsed_seconds() const noexcept {
    return cfg_.min_elapsed_seconds;
  }

  // The shared policy-compliance oracle (exposed for harness reuse).
  const topo::ValleyFreeOracle& oracle() const noexcept { return oracle_; }

 private:
  const topo::AsGraph* graph_;
  topo::ValleyFreeOracle oracle_;
  DecisionConfig cfg_;
};

}  // namespace lg::core
