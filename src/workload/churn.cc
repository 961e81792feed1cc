#include "workload/churn.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "workload/sim_world.h"

namespace lg::workload {

namespace {
// Flapper periods spread over the mean +/- this fraction.
constexpr double kJitterFrac = 0.5;
}  // namespace

ChurnWorkload::ChurnWorkload(SimWorld& world, ChurnConfig cfg)
    : world_(&world), cfg_(cfg) {
  c_flaps_ = &obs::MetricsRegistry::current().counter("lg.faults.churn_flaps");
  trace_ = &obs::TraceRing::current();
}

double ChurnWorkload::period_of(std::size_t idx) const {
  // Hashed per-flapper period: stable across runs, independent of how many
  // flappers exist or in what order they toggle.
  std::uint64_t state =
      cfg_.seed ^ (static_cast<std::uint64_t>(idx) * 0x9e3779b9ULL);
  const double u = static_cast<double>(util::split_mix64(state) >> 11) * 0x1.0p-53;
  const double lo = cfg_.mean_period_seconds * (1.0 - kJitterFrac);
  const double hi = cfg_.mean_period_seconds * (1.0 + kJitterFrac);
  return lo + (hi - lo) * u;
}

void ChurnWorkload::start(const std::vector<topo::AsId>& exclude) {
  if (cfg_.flappers == 0) return;
  // Over-request stubs so the exclude filter still leaves enough.
  const auto stubs =
      world_->stub_vantage_ases(cfg_.flappers + exclude.size() + 8);
  for (const topo::AsId as : stubs) {
    if (flappers_.size() >= cfg_.flappers) break;
    if (std::find(exclude.begin(), exclude.end(), as) != exclude.end()) {
      continue;
    }
    flappers_.push_back(as);
  }
  announced_.assign(flappers_.size(), true);
  for (std::size_t i = 0; i < flappers_.size(); ++i) {
    world_->announce_production(flappers_[i]);
    world_->scheduler().after(period_of(i), [this, i] { toggle(i); });
  }
}

void ChurnWorkload::toggle(std::size_t idx) {
  const double now = world_->scheduler().now();
  if (cfg_.stop_at > 0.0 && now >= cfg_.stop_at) return;
  const topo::AsId as = flappers_[idx];
  const bool announce = !announced_[idx];
  if (announce) {
    world_->announce_production(as);
  } else {
    world_->engine().withdraw(as, topo::AddressPlan::production_prefix(as));
  }
  announced_[idx] = announce;
  ++flaps_;
  c_flaps_->inc();
  trace_->record(now, obs::TraceKind::kChurnFlap, as, announce ? 1 : 0);
  world_->scheduler().after(period_of(idx), [this, idx] { toggle(idx); });
}

}  // namespace lg::workload
