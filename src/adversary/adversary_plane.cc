#include "adversary/adversary_plane.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"
#include "topology/generator.h"
#include "util/env_knobs.h"
#include "util/rng.h"

namespace lg::adversary {

namespace {

// Distinct tags per behavior class keep the hash streams independent even
// for identical AS keys.
constexpr std::uint64_t kTagPathlenSelect = 0x50415448534c0001ULL;
constexpr std::uint64_t kTagPathlenLimit = 0x504154484c4d0002ULL;
constexpr std::uint64_t kTagDefaultRoute = 0x4445465254450003ULL;
constexpr std::uint64_t kTagPeerlock = 0x504545524c4b0004ULL;
constexpr std::uint64_t kTagDestabilizer = 0x4445535441420005ULL;

}  // namespace

AdversaryConfig AdversaryConfig::at_prevalence(double prevalence) {
  const double p = std::clamp(prevalence, 0.0, 1.0);
  AdversaryConfig cfg;
  cfg.enabled = p > 0.0;
  cfg.pathlen_prevalence = p;
  cfg.default_route_prevalence = p;
  cfg.peerlock_prevalence = p;
  cfg.destabilizer_prevalence = p;
  return cfg;
}

AdversaryConfig AdversaryConfig::from_env(AdversaryConfig base) {
  AdversaryConfig cfg = base;
  if (const char* v = std::getenv("LG_ADVERSARY")) {
    if (std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0) {
      cfg = AdversaryConfig{};
    } else {
      cfg = at_prevalence(util::env_fraction_knob("LG_ADVERSARY", 0.0));
      cfg.seed = base.seed;
      cfg.pathlen_min_limit = base.pathlen_min_limit;
      cfg.pathlen_max_limit = base.pathlen_max_limit;
    }
  }
  cfg.seed = util::env_u64_knob("LG_ADVERSARY_SEED", cfg.seed);
  cfg.pathlen_prevalence =
      util::env_fraction_knob("LG_ADVERSARY_PATHLEN", cfg.pathlen_prevalence);
  cfg.default_route_prevalence = util::env_fraction_knob(
      "LG_ADVERSARY_DEFAULT_ROUTE", cfg.default_route_prevalence);
  cfg.peerlock_prevalence = util::env_fraction_knob("LG_ADVERSARY_PEERLOCK",
                                                    cfg.peerlock_prevalence);
  cfg.destabilizer_prevalence = util::env_fraction_knob(
      "LG_ADVERSARY_DESTABILIZERS", cfg.destabilizer_prevalence);
  if (std::getenv("LG_ADVERSARY_PATHLEN_LIMIT") != nullptr) {
    cfg.pathlen_min_limit = cfg.pathlen_max_limit =
        util::env_size_knob("LG_ADVERSARY_PATHLEN_LIMIT", 0);
  }
  const bool any_behavior =
      cfg.pathlen_prevalence > 0.0 || cfg.default_route_prevalence > 0.0 ||
      cfg.peerlock_prevalence > 0.0 || cfg.destabilizer_prevalence > 0.0;
  cfg.enabled = cfg.enabled || any_behavior;
  return cfg;
}

RoleTable::RoleTable(const topo::AsGraph& graph)
    : graph_(&graph), roles_(graph.num_ases(), Role::kSmallTransit) {
  const std::vector<AsId>& ids = graph.as_ids();
  std::vector<AsId> transits;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (graph.providers(ids[i]).empty()) {
      roles_[i] = Role::kTier1;
    } else if (graph.customers(ids[i]).empty()) {
      roles_[i] = Role::kStub;
    } else {
      transits.push_back(ids[i]);
    }
  }
  for (const AsId id : topo::split_transits(graph, std::move(transits)).first) {
    roles_[graph.index_of(id)] = Role::kLargeTransit;
  }
}

Role RoleTable::role(AsId id) const {
  const std::uint32_t i = graph_->index_of(id);
  return i == topo::AsGraph::kNoIndex ? Role::kStub : roles_[i];
}

std::vector<AsId> locked_ases(const topo::AsGraph& graph) {
  std::vector<AsId> locked;
  for (const AsId id : graph.as_ids()) {
    if (graph.providers(id).empty()) locked.push_back(id);
  }
  return locked;  // as_ids() is sorted, so locked is too
}

AdversaryPlane::AdversaryPlane(AdversaryConfig cfg) : cfg_(cfg) {
  // A disabled plane registers nothing: lg.adversary.* metrics only appear
  // in a run's report when an adversary plane was actually enabled, keeping
  // cooperative bench reports byte-identical to a build without this layer.
  if (cfg_.enabled) {
    auto& reg = obs::MetricsRegistry::current();
    c_pathlen_filters_ = &reg.counter("lg.adversary.pathlen_filters");
    c_default_routed_ = &reg.counter("lg.adversary.default_routed");
    c_peerlock_filters_ = &reg.counter("lg.adversary.peerlock_filters");
    c_destabilizers_ = &reg.counter("lg.adversary.destabilizers");
  }
}

// Shared by every thread that never installed a plane.
AdversaryPlane& AdversaryPlane::fallback() {
  static AdversaryPlane plane{AdversaryConfig{}};
  return plane;
}

Profile AdversaryPlane::profile_for(AsId as, Role role) const {
  Profile p;
  if (!cfg_.enabled) return p;
  // Each behavior is one draw per AS, under its own tag.
  const auto draw = [&](std::uint64_t tag) {
    return util::hash_unit(cfg_.seed, tag, as, 0);
  };
  if (cfg_.pathlen_prevalence > 0.0 &&
      draw(kTagPathlenSelect) < cfg_.pathlen_prevalence) {
    const std::size_t lo =
        std::min(cfg_.pathlen_min_limit, cfg_.pathlen_max_limit);
    const std::size_t hi =
        std::max(cfg_.pathlen_min_limit, cfg_.pathlen_max_limit);
    const std::size_t span = hi - lo + 1;
    p.path_length_limit =
        lo + static_cast<std::size_t>(draw(kTagPathlenLimit) *
                                      static_cast<double>(span));
    p.path_length_limit = std::min(p.path_length_limit, hi);
  }
  if (role == Role::kStub && cfg_.default_route_prevalence > 0.0 &&
      draw(kTagDefaultRoute) < cfg_.default_route_prevalence) {
    p.default_route = true;
  }
  if ((role == Role::kTier1 || role == Role::kLargeTransit) &&
      cfg_.peerlock_prevalence > 0.0 &&
      draw(kTagPeerlock) < cfg_.peerlock_prevalence) {
    p.peerlock = true;
  }
  if (role == Role::kStub && cfg_.destabilizer_prevalence > 0.0 &&
      draw(kTagDestabilizer) < cfg_.destabilizer_prevalence) {
    p.destabilizer = true;
  }
  return p;
}

void AdversaryPlane::note_applied(std::size_t pathlen_filters,
                                  std::size_t default_routed,
                                  std::size_t peerlock_filters,
                                  std::size_t destabilizers) {
  if (!cfg_.enabled) return;
  c_pathlen_filters_->inc(pathlen_filters);
  c_default_routed_->inc(default_routed);
  c_peerlock_filters_->inc(peerlock_filters);
  c_destabilizers_->inc(destabilizers);
}

}  // namespace lg::adversary
