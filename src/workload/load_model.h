// Internet-scale update-load model for poisoning (Table 2, §5.4).
//
// Daily additional path changes per router = I × T × P(d) × U, where
//   I    = fraction of ISPs running LIFEGUARD,
//   T    = fraction of poisonable (transit) ASes each ISP monitors,
//   P(d) = aggregate daily count of poisonable outages lasting ≥ d minutes,
//   U    = average path changes per router per poison (measured ≈1.03-1.07
//          in §5.2; the paper — and this model — round it to 1).
//
// P(d) is anchored on the Hubble dataset exactly as in the paper:
// P(d) = H(d) / (I_h × T_h) with I_h = 0.92 (fraction of edge ASes Hubble
// monitored) and T_h = 0.01 (estimated fraction of poisonable transit ASes
// on Hubble paths). H(15) and H(60) come from Hubble's outage counts; H(5)
// is extrapolated from the EC2 duration distribution, again following §5.4.
#pragma once

#include <vector>

#include "util/stats.h"

namespace lg::workload {

class LoadModel {
 public:
  // Calibrate the d=5-minute extrapolation from an outage-duration study
  // (survival ratio P(X>=5min)/P(X>=15min) of the EC2-like distribution).
  void calibrate_extrapolation(const util::EmpiricalCdf& outage_durations);

  // Aggregate daily poisonable outages lasting >= d minutes (d in
  // {5, 15, 60}).
  double poisonable_outages_per_day(double d_minutes) const;

  // Table 2 cell: additional daily path changes per router.
  double daily_path_changes(double isp_fraction, double monitored_fraction,
                            double d_minutes) const;

 private:
  double extrapolation_5min_ratio_ = 2.87;  // P(5)/P(15) default
};

// Reference points the paper cites for context: a single-homed edge router
// sees ~110K updates/day; tier-1 routers 255K-315K/day.
inline constexpr double kEdgeRouterDailyUpdates = 110000.0;
inline constexpr double kTier1RouterDailyUpdatesLow = 255000.0;
inline constexpr double kTier1RouterDailyUpdatesHigh = 315000.0;

}  // namespace lg::workload
