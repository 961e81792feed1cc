#include "adversary/destabilizer.h"

#include <algorithm>

#include "util/rng.h"

namespace lg::adversary {

constexpr std::uint64_t kTagGap = 0x4453544247415001ULL;

std::vector<Step> destabilizer_schedule(std::uint64_t seed, topo::AsId as,
                                        const DestabilizerConfig& cfg) {
  std::vector<Step> steps;
  if (cfg.max_cycles == 0 || cfg.mean_period_seconds <= 0.0) return steps;
  steps.reserve(cfg.max_cycles * 2);
  const double jitter = std::clamp(cfg.jitter_frac, 0.0, 1.0);
  const double lo = cfg.mean_period_seconds * (1.0 - jitter);
  const double hi = cfg.mean_period_seconds * (1.0 + jitter);
  const std::size_t variants = std::max<std::size_t>(1, cfg.prepend_variants);
  double t = 0.0;
  for (std::size_t cycle = 0; cycle < cfg.max_cycles; ++cycle) {
    const std::uint64_t key = as;
    t += lo + (hi - lo) * util::hash_unit(seed, kTagGap, key, 2 * cycle);
    steps.push_back(Step{t, StepKind::kAnnounce, cycle % variants});
    t += lo + (hi - lo) * util::hash_unit(seed, kTagGap, key, 2 * cycle + 1);
    steps.push_back(Step{t, StepKind::kWithdraw, 0});
  }
  return steps;
}

}  // namespace lg::adversary
