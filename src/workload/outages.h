// Outage-duration workload, calibrated to the paper's EC2 measurement study
// (§2.1): 10,308 partial outages, minimum measurable duration 90 s (four
// consecutive failed ping pairs at 30 s spacing), median exactly at the
// floor, >90% of outages at most 10 minutes, yet ~84% of total
// unavailability contributed by the >10-minute tail.
//
// The generator is a three-component mixture:
//   * floor component   — outages barely above the 90 s detection floor,
//   * short component   — 90 s + exponential, truncated at 10 min,
//   * heavy tail        — Pareto above 10 min (capped at one week),
// whose weights/parameters reproduce the paper's headline statistics; the
// fig1/fig5 benches print measured-vs-paper values side by side.
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"

namespace lg::workload {

// The minimum measurable outage: every sampled duration is at least this.
inline constexpr double kOutageFloorSeconds = 90.0;

struct OutageDurationParams {
  double floor_weight = 0.57;  // fraction pinned near the floor
  double short_weight = 0.37;  // exponential component
  double short_cap = 600.0;    // truncation (10 minutes)
  // Remaining weight is the heavy tail, Pareto above 10 minutes and capped
  // at one week. With alpha = 0.75 the calibration reproduces the paper's
  // joint statistics: ~84% of unavailability above 10 min, ~12% of outages
  // >= 5 min, ~51% of >=5-min outages lasting >= 5 more, ~68% of >=10-min
  // outages lasting >= 5 more.
  double tail_alpha = 0.75;

  double tail_weight() const { return 1.0 - floor_weight - short_weight; }
};

// One sampled outage duration in seconds.
double sample_outage_duration(util::Rng& rng, const OutageDurationParams& p);

// One outage of a continuous arrival process: start time plus an
// EC2-calibrated duration.
struct OutageEvent {
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
};

// A Poisson arrival process of outages over [0, horizon_seconds): arrival
// gaps are exponential at `rate_per_hour`, durations drawn from the default
// mixture and (when duration_cap_seconds > 0) truncated so long-tail
// outages cannot outlive a bounded harness run. Events come back in start
// order. This is the always-on fleet's workload: at any instant several
// sampled outages may overlap — exactly the concurrent-outage regime the
// episode state machine has to multiplex.
std::vector<OutageEvent> sample_outage_process(
    util::Rng& rng, double rate_per_hour, double horizon_seconds,
    double duration_cap_seconds = 0.0);

// The full synthetic study: `n` outages (paper: 10,308).
util::EmpiricalCdf generate_outage_study(std::size_t n,
                                         const OutageDurationParams& p = {},
                                         std::uint64_t seed = 20100720);

// Residual-duration table for Fig. 5: for each elapsed time, the
// mean/median/25th-percentile of remaining duration among outages that
// survived that long.
struct ResidualRow {
  double elapsed_minutes = 0.0;
  double mean_residual_min = 0.0;
  double median_residual_min = 0.0;
  double p25_residual_min = 0.0;
  std::size_t surviving = 0;
};
std::vector<ResidualRow> residual_duration_rows(
    const util::EmpiricalCdf& study, const std::vector<double>& elapsed_minutes);

}  // namespace lg::workload
