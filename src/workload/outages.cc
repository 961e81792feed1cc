#include "workload/outages.h"

#include <algorithm>

namespace lg::workload {

namespace {
// Mean of the short component's exponential part, above the floor.
constexpr double kShortMeanExtra = 110.0;
// The heavy tail: Pareto from 10 minutes, capped at one week.
constexpr double kTailXmin = 600.0;
constexpr double kTailCap = 7.0 * 86400.0;
}  // namespace

double sample_outage_duration(util::Rng& rng, const OutageDurationParams& p) {
  const double u = rng.uniform01();
  if (u < p.floor_weight) {
    // Pinned at the detection floor: the real study cannot distinguish
    // anything inside [floor, floor + ping interval).
    return kOutageFloorSeconds + rng.uniform(0.0, 30.0);
  }
  if (u < p.floor_weight + p.short_weight) {
    const double extra = rng.exponential(kShortMeanExtra);
    return std::min(kOutageFloorSeconds + extra, p.short_cap - 1.0);
  }
  const double d = rng.pareto(kTailXmin, p.tail_alpha);
  return std::min(d, kTailCap);
}

std::vector<OutageEvent> sample_outage_process(util::Rng& rng,
                                               double rate_per_hour,
                                               double horizon_seconds,
                                               double duration_cap_seconds) {
  std::vector<OutageEvent> events;
  if (rate_per_hour <= 0.0 || horizon_seconds <= 0.0) return events;
  const double mean_gap = 3600.0 / rate_per_hour;
  double t = rng.exponential(mean_gap);
  while (t < horizon_seconds) {
    double d = sample_outage_duration(rng, {});
    if (duration_cap_seconds > 0.0) d = std::min(d, duration_cap_seconds);
    events.push_back(OutageEvent{t, d});
    t += rng.exponential(mean_gap);
  }
  return events;
}

util::EmpiricalCdf generate_outage_study(std::size_t n,
                                         const OutageDurationParams& p,
                                         std::uint64_t seed) {
  util::Rng rng(seed, 0x6f757467ULL);
  util::EmpiricalCdf cdf;
  for (std::size_t i = 0; i < n; ++i) {
    cdf.add(sample_outage_duration(rng, p));
  }
  return cdf;
}

std::vector<ResidualRow> residual_duration_rows(
    const util::EmpiricalCdf& study,
    const std::vector<double>& elapsed_minutes) {
  std::vector<ResidualRow> rows;
  rows.reserve(elapsed_minutes.size());
  for (const double m : elapsed_minutes) {
    const double x = m * 60.0;
    ResidualRow row;
    row.elapsed_minutes = m;
    row.surviving = study.count_above(x);
    if (row.surviving > 0) {
      row.mean_residual_min = study.mean_residual(x) / 60.0;
      row.median_residual_min = study.residual_quantile(x, 0.5) / 60.0;
      row.p25_residual_min = study.residual_quantile(x, 0.25) / 60.0;
    }
    rows.push_back(row);
  }
  return rows;
}

}  // namespace lg::workload
