#include "workload/load_model.h"

#include <stdexcept>

namespace lg::workload {

namespace {
// Hubble-derived daily counts of poisonable outages lasting >= d minutes.
constexpr double kHubbleOutages15MinPerDay = 252.0;
constexpr double kHubbleOutages60MinPerDay = 106.0;
constexpr double kHubbleMonitoredFraction = 0.92;   // I_h
constexpr double kHubblePoisonableFraction = 0.01;  // T_h
constexpr double kUpdatesPerRouterPerPoison = 1.0;  // U
}  // namespace

void LoadModel::calibrate_extrapolation(
    const util::EmpiricalCdf& outage_durations) {
  const double p5 =
      static_cast<double>(outage_durations.count_above(5.0 * 60.0));
  const double p15 =
      static_cast<double>(outage_durations.count_above(15.0 * 60.0));
  if (p15 > 0.0) extrapolation_5min_ratio_ = p5 / p15;
}

double LoadModel::poisonable_outages_per_day(double d_minutes) const {
  const double denom = kHubbleMonitoredFraction * kHubblePoisonableFraction;
  if (d_minutes >= 60.0) {
    return kHubbleOutages60MinPerDay / denom;
  }
  if (d_minutes >= 15.0) {
    return kHubbleOutages15MinPerDay / denom;
  }
  if (d_minutes >= 5.0) {
    // Hubble's smallest observable duration is 15 minutes; extrapolate with
    // the EC2 duration distribution's survival ratio (§5.4).
    return kHubbleOutages15MinPerDay * extrapolation_5min_ratio_ / denom;
  }
  throw std::invalid_argument("load model supports d in {5, 15, 60} minutes");
}

double LoadModel::daily_path_changes(double isp_fraction,
                                     double monitored_fraction,
                                     double d_minutes) const {
  return isp_fraction * monitored_fraction *
         poisonable_outages_per_day(d_minutes) * kUpdatesPerRouterPerPoison;
}

}  // namespace lg::workload
