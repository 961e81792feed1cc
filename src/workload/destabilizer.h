// Drives the adversary plane's destabilizing announcers against a live
// SimWorld: every stub the plane profiled as a destabilizer plays its
// finite, seed-derived announce/withdraw schedule (see
// adversary/destabilizer.h) as scheduler events. Announcements cycle
// through prepend variants so each one is a distinct path and forces
// re-exploration; the engine's route-flap damping is the backstop that
// bounds the blast radius.
//
// Inert without an enabled adversary plane (or with destabilizer
// prevalence 0): start() schedules nothing and no metrics are registered,
// so cooperative runs stay byte-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "adversary/destabilizer.h"
#include "topology/as_graph.h"

namespace lg::obs {
class Counter;
class TraceRing;
}  // namespace lg::obs

namespace lg::workload {

class SimWorld;

struct DestabilizerWorkloadConfig {
  // Cap on how many profiled destabilizers actually play (SIZE_MAX = all).
  std::size_t max_destabilizers = SIZE_MAX;
  // Skip steps past this simulated time (<= 0 = play every step).
  double stop_at = 0.0;
};

class DestabilizerWorkload {
 public:
  DestabilizerWorkload(SimWorld& world, DestabilizerWorkloadConfig cfg = {});

  // Select the plane's destabilizer stubs (minus `exclude`) and schedule
  // their playbooks. Call once; everything rides the world's scheduler.
  void start(const std::vector<topo::AsId>& exclude);

  const std::vector<topo::AsId>& destabilizer_ases() const noexcept {
    return destabilizers_;
  }
  // Announce/withdraw steps executed so far.
  std::uint64_t steps_played() const noexcept { return steps_played_; }

 private:
  void play(topo::AsId as, const adversary::Step& step);

  SimWorld* world_;
  DestabilizerWorkloadConfig cfg_;
  std::vector<topo::AsId> destabilizers_;
  std::uint64_t steps_played_ = 0;

  // Registered only when the adversary plane is enabled (nullptr otherwise).
  obs::Counter* c_steps_ = nullptr;
  obs::TraceRing* trace_;
};

}  // namespace lg::workload
