// Shared harness for the paper's poisoning experiments (§5.1, §5.2, Fig. 6).
//
// Mirrors the BGP-Mux methodology: an origin AS announces a production
// prefix (optionally with the prepended O-O-O baseline), we "harvest" the
// transit ASes seen on feed-AS paths toward it, poison one AS at a time,
// and measure — from route-collector update streams — which peers found
// alternate paths, how long each took to reconverge, how many updates every
// router emitted, and (optionally) data-plane loss sampled every 10 s from
// a set of vantage points during the convergence window.
#pragma once

#include <optional>
#include <vector>

#include "bgp/collector.h"
#include "core/remediation.h"
#include "workload/sim_world.h"

namespace lg::workload {

struct PoisonExperimentConfig {
  // Baseline announcement length: 3 reproduces the paper's O-O-O, 1 is the
  // unprepended "No prepend" ablation of Fig. 6.
  std::size_t baseline_prepend = 3;
  // Loss sampling (§5.2 "How much loss accompanies convergence?") from
  // these vantage points.
  bool measure_loss = false;
  std::vector<AsId> loss_vantage_ases;
};

struct PeerOutcome {
  AsId peer = topo::kInvalidAs;
  bool routed_via_poisoned_before = false;
  bool has_route_after = false;
  bool avoids_poisoned_after = false;
  // Seconds from the peer's first post-poison update to its last; 0 with
  // update_count==1 is the paper's "converged instantly".
  double convergence_seconds = 0.0;
  std::size_t update_count = 0;
};

struct LossStats {
  double overall_loss_rate = 0.0;
  double worst_bin_loss_rate = 0.0;  // worst 10-second sampling bin
  std::size_t vantage_points_used = 0;
  std::size_t vantage_points_cut_off = 0;  // excluded, as in the paper
};

struct PoisonOutcome {
  AsId poisoned = topo::kInvalidAs;
  std::vector<PeerOutcome> peers;
  double global_convergence_seconds = 0.0;
  // Average router update counts, split by pre-poison routing (the U of
  // Table 2).
  double avg_updates_routing_via = 0.0;
  double avg_updates_not_via = 0.0;
  std::optional<LossStats> loss;
};

class PoisonExperiment {
 public:
  PoisonExperiment(SimWorld& world, AsId origin,
                   PoisonExperimentConfig cfg = {});
  ~PoisonExperiment();
  PoisonExperiment(const PoisonExperiment&) = delete;
  PoisonExperiment& operator=(const PoisonExperiment&) = delete;

  // Announce the baseline and settle.
  void setup();

  // Transit ASes present on feed-AS best paths to the production prefix —
  // the paper's harvested poison candidates (tier-1s excluded by default,
  // as in §5).
  std::vector<AsId> harvest_poison_candidates(
      const std::vector<AsId>& feed_ases, bool exclude_tier1 = true) const;

  // Poison `target`, run to convergence, revert, settle. Peers = ASes whose
  // update stream we observe.
  PoisonOutcome poison_and_measure(AsId target,
                                   const std::vector<AsId>& peers);

  core::Remediator& remediator() noexcept { return remediator_; }
  const topo::Prefix& production_prefix() const {
    return remediator_.production_prefix();
  }

 private:
  LossStats sample_loss_window(double t0);

  SimWorld* world_;
  AsId origin_;
  PoisonExperimentConfig cfg_;
  core::Remediator remediator_;
  bgp::RouteCollector collector_;
};

}  // namespace lg::workload
