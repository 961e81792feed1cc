// Background BGP churn: a set of origin ASes unrelated to the experiment
// flap their production prefixes (announce / withdraw cycles) at per-flapper
// deterministic rates. This exercises LIFEGUARD against the Internet it
// actually runs on — control-plane noise, MRAI queues that are never idle,
// and route-flap damping penalties accumulating on uninvolved sessions —
// instead of the laboratory-quiet substrate of the other benches.
//
// Determinism: each flapper's half-period is a pure hash of (seed, index),
// and every toggle is a scheduler event, so a churn-laden trial is
// bit-identical per seed for any LG_THREADS value.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/as_graph.h"

namespace lg::obs {
class Counter;
class TraceRing;
}  // namespace lg::obs

namespace lg::workload {

class SimWorld;

struct ChurnConfig {
  // Origin ASes to flap. 0 disables churn entirely (no events scheduled).
  std::size_t flappers = 0;
  // Mean half-cycle: a flapper alternates announce/withdraw roughly this
  // often. Individual flappers get a hashed period in
  // [mean * 0.5, mean * 1.5].
  double mean_period_seconds = 120.0;
  std::uint64_t seed = 0x636875726eULL;  // "churn"
  // Stop scheduling new flaps past this simulated time (<= 0 = run forever;
  // benches set it so trials quiesce).
  double stop_at = 0.0;
};

// Drives flapping of `flappers` stub ASes picked from the world, skipping
// any AS in the caller's exclude set (the experiment's origin, target,
// vantage points...). start() announces each flapper once and schedules the
// first toggles; everything after that rides the world's scheduler.
class ChurnWorkload {
 public:
  ChurnWorkload(SimWorld& world, ChurnConfig cfg);

  // Select flapper ASes and schedule the churn. Call once, before or after
  // the world has converged; flapping starts one half-period in.
  void start(const std::vector<topo::AsId>& exclude);

  const std::vector<topo::AsId>& flapper_ases() const noexcept {
    return flappers_;
  }
  // Total announce/withdraw toggles executed so far.
  std::uint64_t flaps() const noexcept { return flaps_; }

 private:
  void toggle(std::size_t idx);
  double period_of(std::size_t idx) const;

  SimWorld* world_;
  ChurnConfig cfg_;
  std::vector<topo::AsId> flappers_;
  std::vector<bool> announced_;
  std::uint64_t flaps_ = 0;

  // Observability handles, resolved once at construction (see obs/metrics.h).
  obs::Counter* c_flaps_;
  obs::TraceRing* trace_;
};

}  // namespace lg::workload
