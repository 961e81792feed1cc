#include "workload/poison_experiment.h"

#include <algorithm>
#include <unordered_set>

#include "topology/addressing.h"

#include "util/stats.h"

namespace lg::workload {

namespace {
// Simulated settling time after (un)announcements, and the budget within
// which convergence must complete (the paper observed <4 min globally).
constexpr double kSettleSeconds = 600.0;
constexpr double kConvergenceBudgetSeconds = 900.0;
// Loss sampling: one ping per vantage point every 10 s over a 10-minute
// window.
constexpr double kLossSampleInterval = 10.0;
constexpr double kLossWindowSeconds = 600.0;
}  // namespace

PoisonExperiment::PoisonExperiment(SimWorld& world, AsId origin,
                                   PoisonExperimentConfig cfg)
    : world_(&world),
      origin_(origin),
      cfg_(cfg),
      remediator_(world.engine(), origin,
                  core::RemediatorConfig{.baseline_prepend =
                                             cfg.baseline_prepend,
                                         .use_sentinel = true}) {
  collector_.monitor_prefix(remediator_.production_prefix());
  world_->engine().add_observer(&collector_);
}

PoisonExperiment::~PoisonExperiment() {
  world_->engine().remove_observer(&collector_);
}

void PoisonExperiment::setup() {
  remediator_.announce_baseline();
  // Vantage points sampling loss need reply-to routes.
  for (const AsId as : cfg_.loss_vantage_ases) {
    world_->announce_production(as);
  }
  world_->advance(kSettleSeconds);
  world_->converge();
}

std::vector<AsId> PoisonExperiment::harvest_poison_candidates(
    const std::vector<AsId>& feed_ases, bool exclude_tier1) const {
  std::unordered_set<AsId> seen;
  std::vector<AsId> out;
  const auto& graph = world_->graph();
  for (const AsId feed : feed_ases) {
    const auto* route =
        world_->engine().best_route(feed, remediator_.production_prefix());
    if (route == nullptr) continue;
    for (const AsId hop : route->path) {
      if (hop == origin_ || hop == feed) continue;
      if (exclude_tier1 && graph.tier(hop) == topo::AsTier::kTier1) continue;
      if (graph.tier(hop) == topo::AsTier::kStub) continue;
      if (seen.insert(hop).second) out.push_back(hop);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

LossStats PoisonExperiment::sample_loss_window(double t0) {
  LossStats stats;
  const auto origin_host = topo::AddressPlan::production_host(origin_);
  const std::size_t bins =
      static_cast<std::size_t>(kLossWindowSeconds / kLossSampleInterval);

  struct VpSamples {
    AsId as;
    std::vector<bool> ok;
  };
  std::vector<VpSamples> samples;
  samples.reserve(cfg_.loss_vantage_ases.size());
  for (const AsId as : cfg_.loss_vantage_ases) {
    samples.push_back({as, {}});
  }

  // Schedule one sampling event per bin, interleaved with BGP convergence.
  for (std::size_t bin = 0; bin < bins; ++bin) {
    world_->scheduler().at(
        t0 + static_cast<double>(bin) * kLossSampleInterval,
        [this, &samples, origin_host] {
          for (auto& vp : samples) {
            const auto vp_addr = topo::AddressPlan::production_host(vp.as);
            vp.ok.push_back(
                world_->prober().ping(vp.as, origin_host, vp_addr).replied);
          }
        });
  }
  world_->scheduler().run(t0 + kConvergenceBudgetSeconds);

  // Per the paper: exclude vantage points completely cut off by this poison
  // (no route at the end of the window — e.g. captives of the poisoned AS
  // without the sentinel fallback).
  std::size_t total = 0;
  std::size_t failed = 0;
  std::vector<std::size_t> bin_total(bins, 0);
  std::vector<std::size_t> bin_failed(bins, 0);
  for (const auto& vp : samples) {
    if (vp.ok.empty()) continue;
    bool cut_off = true;
    // Cut off = every sample in the last quarter of the window failed.
    const std::size_t tail_start = vp.ok.size() - vp.ok.size() / 4 - 1;
    for (std::size_t i = tail_start; i < vp.ok.size(); ++i) {
      if (vp.ok[i]) {
        cut_off = false;
        break;
      }
    }
    if (cut_off) {
      ++stats.vantage_points_cut_off;
      continue;
    }
    ++stats.vantage_points_used;
    for (std::size_t i = 0; i < vp.ok.size(); ++i) {
      ++total;
      ++bin_total[i];
      if (!vp.ok[i]) {
        ++failed;
        ++bin_failed[i];
      }
    }
  }
  stats.overall_loss_rate =
      total == 0 ? 0.0
                 : static_cast<double>(failed) / static_cast<double>(total);
  for (std::size_t i = 0; i < bins; ++i) {
    if (bin_total[i] == 0) continue;
    stats.worst_bin_loss_rate =
        std::max(stats.worst_bin_loss_rate,
                 static_cast<double>(bin_failed[i]) /
                     static_cast<double>(bin_total[i]));
  }
  return stats;
}

PoisonOutcome PoisonExperiment::poison_and_measure(
    AsId target, const std::vector<AsId>& peers) {
  PoisonOutcome outcome;
  outcome.poisoned = target;
  const auto& prefix = remediator_.production_prefix();

  // Pre-poison snapshot over every AS (needed both for per-peer outcomes
  // and for the Table-2 U split below).
  std::unordered_set<AsId> via_before;
  for (const AsId as : world_->graph().as_ids()) {
    if (const auto* route = world_->engine().best_route(as, prefix)) {
      if (bgp::path_traverses(route->path, target, origin_)) {
        via_before.insert(as);
      }
    }
  }

  world_->engine().reset_counters();
  collector_.clear();
  const double t0 = world_->scheduler().now();
  remediator_.poison(target);

  if (cfg_.measure_loss) {
    outcome.loss = sample_loss_window(t0);
  } else {
    world_->scheduler().run(t0 + kConvergenceBudgetSeconds);
  }
  world_->converge();  // drain any MRAI stragglers

  // Per-peer outcomes from the collector stream + final RIBs.
  double first_update = -1.0;
  double last_update = -1.0;
  for (const AsId peer : peers) {
    PeerOutcome po;
    po.peer = peer;
    po.routed_via_poisoned_before = via_before.contains(peer);
    po.update_count = collector_.update_count(peer, prefix, t0);
    po.convergence_seconds =
        collector_.convergence_time(peer, prefix, t0).value_or(0.0);
    if (const auto* route = world_->engine().best_route(peer, prefix)) {
      po.has_route_after = true;
      po.avoids_poisoned_after =
          !bgp::path_traverses(route->path, target, origin_);
    }
    const auto evs = collector_.events_for(peer, prefix, t0);
    if (!evs.empty()) {
      if (first_update < 0.0 || evs.front().time < first_update) {
        first_update = evs.front().time;
      }
      last_update = std::max(last_update, evs.back().time);
    }
    outcome.peers.push_back(po);
  }
  if (first_update >= 0.0) {
    outcome.global_convergence_seconds = last_update - first_update;
  }

  // Router update counts, split by pre-poison routing through the target
  // (computed over *all* ASes, not just peers — Table 2's U).
  util::Summary via_updates;
  util::Summary not_via_updates;
  for (const AsId as : world_->graph().as_ids()) {
    if (as == origin_) continue;
    const auto changes =
        static_cast<double>(world_->engine().best_changes_of(as));
    if (via_before.contains(as)) {
      via_updates.add(changes);
    } else {
      not_via_updates.add(changes);
    }
  }
  outcome.avg_updates_routing_via = via_updates.mean();
  outcome.avg_updates_not_via = not_via_updates.mean();

  // Revert and settle so the next experiment starts clean.
  remediator_.unpoison();
  world_->advance(kSettleSeconds);
  world_->converge();
  return outcome;
}

}  // namespace lg::workload
