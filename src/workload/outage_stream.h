// Streaming outage arrivals for the always-on service plane.
//
// sample_outage_process() materializes a whole trial's worth of outages up
// front, which is the right shape for bounded experiments but wrong for a
// long-lived daemon: an open-ended run has no horizon to pre-sample against,
// and a checkpoint must capture "where the arrival process is" — not a
// vector of future events that may never happen. OutageStream is the lazy
// form: it owns its RNG, generates exactly one pending arrival at a time
// (peek with next_start(), consume with next()), and serializes its full
// state (RNG position, arrival clock, pending event) so a restored process
// continues the *same* arrival sequence the original would have produced.
#pragma once

#include <cstdint>

#include "util/rng.h"
#include "workload/outages.h"

namespace lg::util {
class BinWriter;
class BinReader;
}  // namespace lg::util

namespace lg::workload {

struct OutageStreamConfig {
  // Poisson arrival rate. Zero (or negative) means a silent stream: the
  // pending arrival is at +infinity and next() never fires.
  double rate_per_hour = 24.0;
  // Durations follow the default OutageDurationParams mixture, truncated
  // here (0 = uncapped); keeps the Pareto tail from pinning a shard's
  // remediation slot for a simulated week.
  double duration_cap_seconds = 3600.0;
  std::uint64_t seed = 0;
};

class OutageStream {
 public:
  explicit OutageStream(OutageStreamConfig cfg);

  // Start time of the next arrival (generates it lazily; stable across
  // repeated calls until consumed). +infinity for a silent stream.
  double next_start();
  // Consume and return the pending arrival.
  OutageEvent next();

  std::uint64_t generated() const noexcept { return generated_; }
  const OutageStreamConfig& config() const noexcept { return cfg_; }

  // Checkpoint: save (BinWriter) or restore (BinReader) the mutable state
  // only — configuration is rebuilt from config on restore.
  void serialize(util::BinWriter& w) const;
  void serialize(util::BinReader& r);

 private:
  // The checkpoint layout behind both serialize() overloads.
  template <class Ar, class Self>
  static void layout(Ar& ar, Self& self);
  void ensure_pending();

  OutageStreamConfig cfg_;
  util::Rng rng_;
  double clock_ = 0.0;  // arrival time of the last generated event
  std::uint64_t generated_ = 0;
  bool has_pending_ = false;
  OutageEvent pending_{};
};

}  // namespace lg::workload
